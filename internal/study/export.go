package study

import (
	"bufio"
	"encoding/json"
	"io"

	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// ProbeExport is the machine-readable per-probe record: what a real
// measurement campaign would publish alongside its paper.
type ProbeExport struct {
	ProbeID   int    `json:"probe_id"`
	Country   string `json:"country"`
	ASN       int    `json:"asn"`
	Org       string `json:"org"`
	HasIPv6   bool   `json:"has_ipv6"`
	Responded bool   `json:"responded"`

	// Detection results (absent when the probe never responded).
	Verdict        string   `json:"verdict,omitempty"`
	Transparency   string   `json:"transparency,omitempty"`
	InterceptedV4  []string `json:"intercepted_v4,omitempty"`
	InterceptedV6  []string `json:"intercepted_v6,omitempty"`
	CPEFingerprint string   `json:"cpe_fingerprint,omitempty"`

	// Error is the quarantine record: the probe's measurement panicked
	// and was contained (detection fields are absent).
	Error string `json:"error,omitempty"`
	// InconclusiveSteps lists detector steps degraded to inconclusive by
	// fault-shaped outcomes (see core.StepFault).
	InconclusiveSteps []string `json:"inconclusive_steps,omitempty"`

	// Ground truth, for reproducibility studies on the simulator.
	TruthLocation string `json:"truth_location"`
	TruthPersona  string `json:"truth_persona,omitempty"`
}

// ExportRecord flattens one record — the unit both the bulk Export and
// the streaming sinks serialize.
func ExportRecord(rec *ProbeRecord) ProbeExport {
	var e ProbeExport
	ExportRecordInto(rec, &e)
	return e
}

// ExportRecordInto flattens one record into an existing export,
// reusing its slice capacity — the streaming pipeline's per-record
// path, which serializes one probe at a time and would otherwise pay
// two slice allocations per intercepted probe. Every field is
// overwritten; the slices alias the export's previous backing arrays,
// so the caller must serialize the export before the next call.
func ExportRecordInto(rec *ProbeRecord, e *ProbeExport) {
	v4, v6 := e.InterceptedV4[:0], e.InterceptedV6[:0]
	*e = ProbeExport{
		ProbeID:       rec.Probe.ID,
		Country:       rec.Probe.Country,
		ASN:           rec.Probe.ASN,
		Org:           rec.Probe.Org,
		HasIPv6:       rec.Probe.HasIPv6,
		Responded:     rec.Report != nil,
		TruthLocation: rec.Probe.Truth.Location,
		TruthPersona:  rec.Probe.Truth.Persona,
	}
	if rec.Report != nil {
		e.Verdict = string(rec.Report.Verdict)
		e.Transparency = string(rec.Report.Transparency)
		e.InterceptedV4 = appendIDStrings(v4, rec.Report.InterceptedV4)
		e.InterceptedV6 = appendIDStrings(v6, rec.Report.InterceptedV6)
		e.CPEFingerprint = rec.Report.CPEString
		e.InconclusiveSteps = rec.Report.InconclusiveSteps()
	}
	e.Error = rec.Err
}

// Export flattens the results for JSON serialization.
func (r *Results) Export() []ProbeExport {
	out := make([]ProbeExport, 0, len(r.Records))
	for _, rec := range r.Records {
		out = append(out, ExportRecord(rec))
	}
	return out
}

// MarshalJSON renders the whole run: spec echo plus per-probe records.
func (r *Results) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seed        int64         `json:"seed"`
		TotalProbes int           `json:"total_probes"`
		Seats       int           `json:"interception_seats"`
		Probes      []ProbeExport `json:"probes"`
	}{
		Seed:        r.World.Spec.Seed,
		TotalProbes: r.World.Spec.TotalProbes,
		Seats:       r.World.Spec.TotalSeats(),
		Probes:      r.Export(),
	})
}

// RecordSink receives each record's export the moment its measurement
// completes — the streaming pipeline's alternative to retaining raw
// records in RAM. A sink is owned by exactly one shard, so Append is
// never called concurrently on the same sink; shard k's appends arrive
// in that shard's deterministic probe order.
type RecordSink interface {
	Append(ProbeExport) error
	Close() error
}

// sinkBufSize is the write-buffer size shared by the file sinks. Rows
// are ~200 bytes, so a quarter-megabyte buffer turns per-record writes
// into one syscall per ~1300 records; the streaming engine flushes
// before every checkpoint, so durability is bounded by the checkpoint
// interval, not the buffer.
const sinkBufSize = 1 << 18

// SinkFlusher is implemented by sinks whose Append buffers rows in
// memory. The streaming engine flushes before writing each checkpoint
// so the checkpoint cursor never runs ahead of the sink's durable
// bytes (the resume protocol truncates surplus rows, but can never
// reconstruct missing ones).
type SinkFlusher interface {
	Flush() error
}

// JSONLSink streams exports as one JSON object per line. Opened in
// append mode by a resumed run, a shard's file ends up byte-identical
// to an uninterrupted run's.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer
	buf []byte // reused per-line encode buffer
}

// NewJSONLSink wraps a writer; Close flushes, and closes w if it is an
// io.Closer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, sinkBufSize)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Append implements RecordSink via the hand-rolled encoder in
// jsonl.go, which is byte-identical to json.Encoder including the
// newline framing.
func (s *JSONLSink) Append(e ProbeExport) error {
	s.buf = appendExportJSONLine(s.buf[:0], &e)
	_, err := s.w.Write(s.buf)
	return err
}

// Flush implements SinkFlusher.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// Close flushes and releases the underlying writer.
func (s *JSONLSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendIDStrings appends operator IDs to dst, returning nil for an
// empty set so omitempty JSON leaves the field out.
func appendIDStrings(dst []string, ids []publicdns.ID) []string {
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		dst = append(dst, string(id))
	}
	return dst
}
