package study

import (
	"fmt"
	"time"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// ExpSet is a set of the eight location-query experiments: one
// operator over one address family, the granularity RIPE Atlas
// schedules measurements at (and the granularity of Table 4's "Total"
// columns). Operator i of publicdns.All has bit 2i for IPv4 and bit
// 2i+1 for IPv6.
type ExpSet uint8

// expBit is the bit of the i-th operator's experiment in family f.
func expBit(i int, f core.Family) ExpSet {
	if f == core.V6 {
		return 1 << (2*i + 1)
	}
	return 1 << (2 * i)
}

// Has reports whether the set holds operator id's experiment in family f.
func (s ExpSet) Has(id publicdns.ID, f core.Family) bool {
	for i, op := range publicdns.All {
		if op == id {
			return s&expBit(i, f) != 0
		}
	}
	return false
}

// ProbeRecord is one probe's contribution to the study.
type ProbeRecord struct {
	Probe *atlas.Probe
	// Report is the detector output; nil when the probe never responded
	// to the platform at all.
	Report *core.Report
	// Responded marks which location experiments the probe was online
	// for; experiments it missed do not count it in that experiment's
	// totals.
	Responded ExpSet
	// Net is the event loop of the world that measured the probe. In a
	// sharded run each record points at its own shard's network;
	// follow-up measurements (the TTL extension) must use it rather than
	// a global one, from the host WithHome binds.
	Net *netsim.Network
	// world measured the record and binds its probe's home for
	// WithHome; nil for records no sweep produced.
	world *World
	// Err records a quarantined measurement: the probe's detector
	// panicked, the panic was contained, and the rest of the run
	// proceeded. Report is nil when Err is set.
	Err string
}

// RespondedAll4 reports whether the probe was online for all four
// operators' experiments in a family.
func (pr *ProbeRecord) RespondedAll4(f core.Family) bool {
	if pr.Report == nil {
		return false
	}
	for i := range publicdns.All {
		if pr.Responded&expBit(i, f) == 0 {
			return false
		}
	}
	return true
}

// InterceptedFor reports whether the report flags the operator as
// intercepted in the family.
func (pr *ProbeRecord) InterceptedFor(id publicdns.ID, f core.Family) bool {
	if pr.Report == nil {
		return false
	}
	set := pr.Report.InterceptedV4
	if f == core.V6 {
		set = pr.Report.InterceptedV6
	}
	for _, got := range set {
		if got == id {
			return true
		}
	}
	return false
}

// Results is a completed study run.
type Results struct {
	World   *World
	Records []*ProbeRecord
	// Errors records shard-level failures a sharded run contained: a
	// shard whose world build panicked contributes its error here and no
	// records; the other shards' records are merged as usual.
	Errors []string
	// Metrics is the run's registry — in a sharded run, the merge of
	// every shard's registry. Nil when Spec.DisableMetrics is set.
	Metrics *metrics.Registry
}

// Run executes the pilot study: the full detection technique from every
// responding probe, with platform availability deciding which probes
// appear in which experiment's totals.
func Run(w *World) *Results {
	return &Results{World: w, Records: runRecords(w), Metrics: w.Metrics}
}

// runRecords runs the detector from every responding probe the world
// owns and keeps every record. The availability outcomes come from the
// template's fleet, drawn once over every probe, so the Responded sets
// match the unsharded build whichever probes the world owns.
func runRecords(w *World) []*ProbeRecord {
	var records []*ProbeRecord
	streamRecords(w, 0, func(rec *ProbeRecord) bool {
		records = append(records, rec)
		return true
	})
	w.studyMetrics.observeRetained(len(records))
	return records
}

// streamRecords is the measurement sweep underneath both pipelines:
// it yields each record the moment its measurement completes, retaining
// nothing itself. The in-memory path's yield collects the records; the
// streaming path folds each into an accumulator and lets it go. A false
// return from yield stops the sweep (used to simulate crashes in
// checkpoint tests).
//
// skip suppresses the first skip records the world would produce — a
// resumed shard's already-checkpointed prefix. Skipped probes are not
// measured, not yielded, and not counted in the engine's Stable
// counters (the checkpoint's restored registry already carries their
// contribution). Skipping is deterministic because a probe's
// measurement outcome never depends on the measurements before it: the
// availability stream is pre-drawn, fault decisions hash packet
// content, and resolver cache warmth only moves Diagnostic RTTs.
func streamRecords(w *World, skip int, yield func(*ProbeRecord) bool) {
	sm := w.studyMetrics
	measureStart := time.Now()
	first, step, owned := w.Spec.ownedIDs(w.Platform.Len())
	// The checkpointed prefix is the first skip owned probes: already
	// folded and counted, so the walk starts after it.
	for rank := skip; rank < owned; rank++ {
		id := first + rank*step
		probe := w.probe(id)
		rec := &ProbeRecord{Probe: probe, Net: w.Net, world: w}
		sm.noteRecord()
		// The experiments the probe was online for, drawn with the
		// template: none for a dead probe.
		rec.Responded = ExpSet(w.Platform.Fleet[id-firstProbeID].Online)
		if rec.Responded == 0 {
			sm.noteUnresponsive()
			if !yield(rec) {
				return
			}
			continue
		}
		// The probe's home exists only for its measurement: bound into
		// the world's home slot here, released once the record is handed
		// on (quarantined or not).
		w.buildHome(probe)
		rec.Report, rec.Err = measure(w, probe)
		sm.noteMeasured(rec.Err != "")
		more := yield(rec)
		w.releaseHome(probe)
		if !more {
			return
		}
	}
	sm.observeMeasure(time.Since(measureStart), max(owned-skip, 0))
}

// measure runs the detector for one probe, containing any panic: a
// probe whose measurement blows up is quarantined (recorded with the
// panic message) instead of taking the shard — and with it the run —
// down. The world's event loop is drained afterwards so a half-finished
// flow cannot leak packets into the next probe's measurement.
func measure(w *World, probe *atlas.Probe) (report *core.Report, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			report = nil
			errMsg = fmt.Sprintf("quarantined: %v", r)
			// Drain in-flight events; a panicking drain would defeat the
			// quarantine, so contain that too.
			func() {
				defer func() { recover() }()
				w.Net.Run()
			}()
		}
	}()
	det := w.Platform.Detector(probe)
	if w.Spec.ClientWrapper != nil {
		det.Client = w.Spec.ClientWrapper(det.Client, probe)
	}
	return det.Run(), ""
}

// Intercepted returns the records whose probes the technique flagged as
// intercepted in any family (the paper's 220).
func (r *Results) Intercepted() []*ProbeRecord {
	var out []*ProbeRecord
	for _, rec := range r.Records {
		if rec.Report != nil && rec.Report.Intercepted() {
			out = append(out, rec)
		}
	}
	return out
}

// Quarantined returns the records whose measurements panicked and were
// contained.
func (r *Results) Quarantined() []*ProbeRecord {
	var out []*ProbeRecord
	for _, rec := range r.Records {
		if rec.Err != "" {
			out = append(out, rec)
		}
	}
	return out
}
