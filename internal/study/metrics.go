package study

import (
	"time"

	"github.com/dnswatch/dnsloc/internal/metrics"
)

// Snapshot is the study engine's exported metric snapshot (text via
// Snapshot.Text, JSON via Snapshot.JSON). See internal/metrics for the
// determinism rules.
type Snapshot = metrics.Snapshot

// MetricsSnapshot renders the run's merged registry. With
// includeDiagnostic false it is the deterministic form — only Stable,
// shard-invariant metrics — which is byte-identical at any worker count
// for a given spec (CI diffs it, the golden corpus commits it). With
// true it adds the Diagnostic layer: RTT histograms, NAT occupancy,
// and wall-clock phase timings. Empty when metrics were disabled.
func (r *Results) MetricsSnapshot(includeDiagnostic bool) *Snapshot {
	return r.Metrics.Snapshot(includeDiagnostic)
}

// studyMetrics is the engine's own instrument panel: fleet progress
// counters (Stable — they derive from the spec and the pre-drawn
// availability stream) and per-phase wall-clock gauges (Diagnostic —
// they measure the host machine, and as max-gauges they record the
// slowest shard).
type studyMetrics struct {
	probes       *metrics.Counter // records produced (stubs excluded)
	measured     *metrics.Counter // probes whose detector ran
	unresponsive *metrics.Counter // dead or offline for every experiment
	quarantined  *metrics.Counter // measurements that panicked, contained

	phaseBuildMs   *metrics.Gauge // world construction, slowest shard
	phasePredrawMs *metrics.Gauge // availability pre-draw, slowest shard
	phaseMeasureMs *metrics.Gauge // detection sweep, slowest shard
	throughput     *metrics.Gauge // probes/second, fastest shard

	// Streaming-pipeline instruments. All Diagnostic: retention depends
	// on the pipeline mode and worker count, homes built and
	// checkpoint/resume counters differ between an interrupted run and
	// an uninterrupted one, while both must render the same Stable
	// snapshot.
	recordsRetained *metrics.Gauge   // peak ProbeRecords held at once, largest shard
	homesBuilt      *metrics.Counter // probe homes built (one per measurement)
	homesLivePeak   *metrics.Gauge   // most homes attached at once in one world
	checkpoints     *metrics.Counter // shard checkpoints written
	resumeSkipped   *metrics.Counter // probes skipped on resume via checkpoints

	// Self-healing instruments. Diagnostic for the same reason as the
	// checkpoint counters: recovery activity depends on the fault
	// history, not the spec, while a healed run and an undisturbed one
	// must still render the same Stable snapshot. (study.shard_restarts
	// is the odd one out: supervision happens above the shard registries,
	// so RunStreamed adds it to the merged registry post-merge.)
	checkpointRecoveries *metrics.Counter // corrupt/foreign checkpoints healed around
	checkpointWriteFails *metrics.Counter // checkpoint stores that failed (retried next interval)
	sinkRetries          *metrics.Counter // sink heal attempts (close/repair/reopen/replay)
	sinksDegraded        *metrics.Counter // sinks permanently dropped (ENOSPC)
}

func newStudyMetrics(reg *metrics.Registry) *studyMetrics {
	if reg == nil {
		return nil
	}
	return &studyMetrics{
		probes:         reg.Counter("study.probes", metrics.Stable),
		measured:       reg.Counter("study.probes_measured", metrics.Stable),
		unresponsive:   reg.Counter("study.probes_unresponsive", metrics.Stable),
		quarantined:    reg.Counter("study.quarantined", metrics.Stable),
		phaseBuildMs:   reg.Gauge("study.phase_build_ms", metrics.Diagnostic),
		phasePredrawMs: reg.Gauge("study.phase_predraw_ms", metrics.Diagnostic),
		phaseMeasureMs: reg.Gauge("study.phase_measure_ms", metrics.Diagnostic),
		throughput:     reg.Gauge("study.shard_probes_per_s", metrics.Diagnostic),

		recordsRetained: reg.Gauge("study.records_retained", metrics.Diagnostic),
		homesBuilt:      reg.Counter("study.homes_built", metrics.Diagnostic),
		homesLivePeak:   reg.Gauge("study.homes_live_peak", metrics.Diagnostic),
		checkpoints:     reg.Counter("study.checkpoints_written", metrics.Diagnostic),
		resumeSkipped:   reg.Counter("study.resume_probes_skipped", metrics.Diagnostic),

		checkpointRecoveries: reg.Counter("study.checkpoint_recoveries", metrics.Diagnostic),
		checkpointWriteFails: reg.Counter("study.checkpoint_write_failures", metrics.Diagnostic),
		sinkRetries:          reg.Counter("study.sink_retries", metrics.Diagnostic),
		sinksDegraded:        reg.Counter("study.sinks_degraded", metrics.Diagnostic),
	}
}

// Nil-safe recording helpers.

func (sm *studyMetrics) noteRecord() {
	if sm != nil {
		sm.probes.Inc()
	}
}

func (sm *studyMetrics) noteMeasured(quarantined bool) {
	if sm == nil {
		return
	}
	sm.measured.Inc()
	if quarantined {
		sm.quarantined.Inc()
	}
}

func (sm *studyMetrics) noteUnresponsive() {
	if sm != nil {
		sm.unresponsive.Inc()
	}
}

func (sm *studyMetrics) observeBuild(d time.Duration) {
	if sm != nil {
		sm.phaseBuildMs.Observe(d.Milliseconds())
	}
}

func (sm *studyMetrics) observePredraw(d time.Duration) {
	if sm != nil {
		sm.phasePredrawMs.Observe(d.Milliseconds())
	}
}

func (sm *studyMetrics) observeRetained(n int) {
	if sm != nil {
		sm.recordsRetained.Observe(int64(n))
	}
}

// noteHomeBuilt counts one home built; live is the world's attached
// homes including it.
func (sm *studyMetrics) noteHomeBuilt(live int) {
	if sm != nil {
		sm.homesBuilt.Inc()
		sm.homesLivePeak.Observe(int64(live))
	}
}

func (sm *studyMetrics) noteCheckpoint() {
	if sm != nil {
		sm.checkpoints.Inc()
	}
}

func (sm *studyMetrics) noteResumeSkipped(n int) {
	if sm != nil {
		sm.resumeSkipped.Add(int64(n))
	}
}

func (sm *studyMetrics) noteCheckpointRecovery() {
	if sm != nil {
		sm.checkpointRecoveries.Inc()
	}
}

func (sm *studyMetrics) noteCheckpointWriteFailure() {
	if sm != nil {
		sm.checkpointWriteFails.Inc()
	}
}

// noteSinkHealing folds a closed sink's self-healing stats into the
// shard registry.
func (sm *studyMetrics) noteSinkHealing(st SinkStats) {
	if sm == nil {
		return
	}
	sm.sinkRetries.Add(st.Retries)
	if st.Degraded {
		sm.sinksDegraded.Inc()
	}
}

func (sm *studyMetrics) observeMeasure(d time.Duration, records int) {
	if sm == nil {
		return
	}
	sm.phaseMeasureMs.Observe(d.Milliseconds())
	if secs := d.Seconds(); secs > 0 {
		sm.throughput.Observe(int64(float64(records) / secs))
	}
}
