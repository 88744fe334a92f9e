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

// availabilityDraws is how many Responds samples one probe consumes in
// the campaign: one per v4 experiment, plus one per v6 experiment when
// the probe has routed IPv6. Dead probes are skipped before sampling.
func availabilityDraws(probe *atlas.Probe) int {
	if probe.Availability == atlas.Dead {
		return 0
	}
	n := len(publicdns.All)
	if probe.HasIPv6 {
		n *= 2
	}
	return n
}

// runRecords pre-draws the availability stream for the whole fleet, then
// runs the detector from every responding probe the world owns.
// In a shard-filtered world the stream still covers every probe (stubs
// included), so the Responded outcomes match the unsharded build; only
// the shard's own probes produce records.
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
	predrawStart := time.Now()
	table := w.Platform.PredrawResponses(availabilityDraws)
	sm.observePredraw(time.Since(predrawStart))
	measureStart := time.Now()
	produced := 0
	for _, probe := range w.Platform.Probes() {
		if !w.Spec.owns(probe.ID) {
			continue // foreign stub: its own shard records it
		}
		if produced < skip {
			produced++
			continue // checkpointed prefix: already folded and counted
		}
		produced++
		rec := &ProbeRecord{Probe: probe, Net: w.Net, world: w}
		sm.noteRecord()
		if probe.Availability == atlas.Dead {
			sm.noteUnresponsive()
			if !yield(rec) {
				return
			}
			continue
		}
		// Per-experiment availability, replayed in the serial draw order:
		// v4 then (if routed) v6, per operator.
		draws := table[probe.ID]
		online := false
		j := 0
		for i := range publicdns.All {
			if draws[j] {
				rec.Responded |= expBit(i, core.V4)
				online = true
			}
			j++
			if probe.HasIPv6 {
				if draws[j] {
					rec.Responded |= expBit(i, core.V6)
					online = true
				}
				j++
			}
		}
		if !online {
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
	sm.observeMeasure(time.Since(measureStart), produced-skip)
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
