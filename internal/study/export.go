package study

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

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

// ExportRecordInto flattens one record into an existing export — the
// unit the record sinks serialize — reusing its slice capacity: the
// streaming pipeline serializes one probe at a time and would otherwise
// pay two slice allocations per intercepted probe. Every field is
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

// JSONDoc writes a run's per-probe dataset as one indented JSON
// document: the spec echo, then every probe's export in ID order. The
// bytes are json.MarshalIndent's (prefix "", indent "  ") of the object
// {seed, total_probes, interception_seats, probes}, written one probe
// at a time from the probe's JSONL row, so no more than one probe is
// held.
type JSONDoc struct {
	w      *bufio.Writer
	probes int
	buf    bytes.Buffer
}

// NewJSONDoc starts the document for spec on w.
func NewJSONDoc(w io.Writer, spec Spec) *JSONDoc {
	d := &JSONDoc{w: bufio.NewWriterSize(w, sinkBufSize)}
	fmt.Fprintf(d.w, "{\n  \"seed\": %d,\n  \"total_probes\": %d,\n  \"interception_seats\": %d,\n  \"probes\": [",
		spec.Seed, spec.TotalProbes, spec.TotalSeats())
	return d
}

// Add appends the next probe, given as its JSONL row.
func (d *JSONDoc) Add(row []byte) error {
	if d.probes > 0 {
		d.w.WriteByte(',') //nolint:errcheck // Close reports the writer's error
	}
	d.probes++
	d.w.WriteString("\n    ") //nolint:errcheck
	d.buf.Reset()
	if err := json.Indent(&d.buf, row, "    ", "  "); err != nil {
		return err
	}
	_, err := d.w.Write(d.buf.Bytes())
	return err
}

// Close ends the document and flushes it; it does not close w.
func (d *JSONDoc) Close() error {
	if d.probes > 0 {
		d.w.WriteString("\n  ") //nolint:errcheck
	}
	d.w.WriteString("]\n}") //nolint:errcheck
	return d.w.Flush()
}

// WalkRecords reads a run's JSONL shard files back in probe-ID order,
// calling fn with each row (without its newline) and its decoded
// export; both are reused once fn returns. paths[k] is shard k's file
// of a len(paths)-shard run. Shard k holds the IDs congruent to k
// modulo the shard count, ascending, so the walk takes probe i's row
// from shard i mod K and ends at the first ID whose shard has no row
// left. A row out of place, or one left over in another shard, is an
// error.
func WalkRecords(paths []string, fn func(row []byte, e *ProbeExport) error) error {
	shards := make([]*bufio.Scanner, len(paths))
	for k, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		shards[k] = bufio.NewScanner(f)
	}
	var e ProbeExport
	for id := firstProbeID; len(shards) > 0; id++ {
		k := id % len(shards)
		if !shards[k].Scan() {
			break
		}
		row := shards[k].Bytes()
		e = ProbeExport{}
		if err := json.Unmarshal(row, &e); err != nil {
			return fmt.Errorf("study: %s: probe %d: %w", paths[k], id, err)
		}
		if e.ProbeID != id {
			return fmt.Errorf("study: %s: probe %d where probe %d belongs", paths[k], e.ProbeID, id)
		}
		if err := fn(row, &e); err != nil {
			return err
		}
	}
	for k, sc := range shards {
		if sc.Scan() {
			return fmt.Errorf("study: %s: rows past the end of the run", paths[k])
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("study: %s: %w", paths[k], err)
		}
	}
	return nil
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

// ShardFile is shard k's record file of a workers-shard run under a
// path prefix: <prefix>.shardK-of-N.jsonl.
func ShardFile(prefix string, k, workers int) string {
	return fmt.Sprintf("%s.shard%d-of-%d.jsonl", prefix, k, workers)
}

// JSONLFiles opens each shard's JSONL sink in its ShardFile under
// prefix. On resume a shard's file is trimmed back to its checkpoint
// cursor (dropping rows written after the last checkpoint and any
// partial line a kill left) and appended to, so the finished file is
// byte-identical to an uninterrupted run's.
func JSONLFiles(prefix string) func(k, workers, resumedAt int) (RecordSink, error) {
	return func(k, workers, resumedAt int) (RecordSink, error) {
		path := ShardFile(prefix, k, workers)
		if err := TruncateSinkFile(path, resumedAt); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return NewJSONLSink(f), nil
	}
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
