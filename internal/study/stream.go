package study

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/metrics"
)

// Accumulator is the streaming pipeline's aggregation state: something
// that can fold one completed record at a time, merge with a sibling
// shard's state, and round-trip through bytes for a checkpoint.
// internal/analysis provides the canonical implementation (every table,
// figure, and accuracy aggregate of the paper); the interface lives
// here so the engine can stream without importing the analysis layer.
//
// The engine's determinism contract extends to implementations: Fold
// must be commutative in record order and Merge in shard order (pure
// counting keyed on record-intrinsic fields satisfies both), or the
// output stops being byte-identical at any worker count.
type Accumulator interface {
	// Fold adds one record's contribution. The record is released after
	// the call returns; implementations must not retain it. (The one
	// exception is RunSharded's record keeper, whose job is to retain.)
	Fold(rec *ProbeRecord)
	// Merge folds another shard's accumulator (always the same concrete
	// type) into this one.
	Merge(other Accumulator) error
	// MarshalState serializes the accumulated state for a checkpoint.
	MarshalState() ([]byte, error)
	// LoadState replaces the state with a checkpointed one.
	LoadState(data []byte) error
}

// StreamOptions configure a streamed, bounded-memory study run.
type StreamOptions struct {
	// Workers is the shard count; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one call per completed shard,
	// serialized but in completion order.
	Progress func(shard, workers, probes int, elapsed time.Duration)

	// NewAccumulator builds shard k's accumulator; required. It is
	// called once per shard attempt, plus once with shard -1 for the
	// final merge target.
	NewAccumulator func(shard int) Accumulator

	// NewSink, when non-nil, opens shard k's record sink: every
	// completed record's export is appended to it, in the shard's
	// deterministic probe order, instead of being retained in RAM.
	// resumedAt is the number of records the shard's checkpoint already
	// covers — 0 for a fresh run; a resuming caller must discard sink
	// output beyond that count (see TruncateSinkFile) before appending.
	// The supervisor re-invokes it when a restarted shard resumes, so
	// it must be safe to call more than once per shard.
	NewSink func(shard, workers, resumedAt int) (RecordSink, error)

	// CheckpointDir, when non-empty, enables shard-level checkpointing:
	// every CheckpointEvery records each shard durably persists its
	// accumulator state, fold cursor, and metric registry snapshot into
	// its alternating checkpoint slots (see DESIGN.md §12), and a final
	// checkpoint on completion.
	CheckpointDir string
	// CheckpointEvery is the records-per-checkpoint interval; <= 0
	// means 1000.
	CheckpointEvery int
	// Resume loads each shard's checkpoint (when present) and skips the
	// records it covers: the shard's world is rebuilt from the seed —
	// replaying every RNG stream deterministically — and measurement
	// restarts at the cursor, so the finished run is byte-identical to
	// an uninterrupted one. Corrupt or foreign checkpoints never fail
	// the run: the shard falls back to an older generation or restarts
	// from cursor 0, classified and counted in
	// study.checkpoint_recoveries.
	Resume bool

	// MaxShardRestarts bounds the shard supervisor: a worker that
	// panics or fails on I/O is restarted from its last good checkpoint
	// (from scratch when checkpointing is off) up to this many times
	// before the failure lands in StreamResults.Errors. 0 means the
	// default (3); negative disables supervision.
	MaxShardRestarts int

	// FS, when non-nil, is the filesystem checkpoint I/O goes through —
	// a faultfs.Fault in the crash-torture harness. Nil means the real
	// filesystem. (Sink I/O is owned by NewSink; a harness injects
	// faults there by opening sink files through its own faultfs.)
	FS faultfs.FS

	// Warnf, when non-nil, receives each self-healing warning (corrupt
	// checkpoints recovered, failed checkpoint writes, shard restarts)
	// as it happens. Warnings are also collected into
	// StreamResults.Warnings regardless.
	Warnf func(format string, args ...any)

	// StopAfterProbes, when > 0, halts each shard after folding that
	// many records without writing a final checkpoint — a deterministic
	// stand-in for a mid-flight kill, used by checkpoint tests and CI.
	StopAfterProbes int
}

// StreamResults is a completed (or deliberately halted) streamed run.
type StreamResults struct {
	Spec Spec
	// Acc is the shard accumulators merged in shard order.
	Acc Accumulator
	// Errors records contained shard-level failures — after the
	// supervisor exhausted its restarts.
	Errors []string
	// Warnings are the self-healing events the run recovered from
	// (corrupt checkpoints, failed checkpoint writes, shard restarts).
	// Non-empty Warnings with empty Errors means degraded-but-correct.
	Warnings []string
	// Restarts counts supervisor-driven shard worker restarts.
	Restarts int
	// Metrics is the merged registry; nil when Spec.DisableMetrics.
	Metrics *metrics.Registry
	// Folded is the number of records folded this run; Skipped is the
	// number restored from checkpoints instead of re-measured.
	Folded, Skipped int
	// Stopped reports that StopAfterProbes halted at least one shard.
	Stopped bool
}

// MetricsSnapshot renders the run's merged registry, mirroring
// Results.MetricsSnapshot.
func (r *StreamResults) MetricsSnapshot(includeDiagnostic bool) *Snapshot {
	return r.Metrics.Snapshot(includeDiagnostic)
}

// RunStreamed executes the pilot study as a streaming, bounded-memory
// pipeline: each shard folds every completed record into its
// accumulator (and optional sink) and releases it, retaining no
// O(probes) record slice. Folding is commutative and the shard merge
// runs in shard order, so the tables, figures, CSV, and Stable metric
// snapshot rendered from the merged accumulator are byte-identical at
// any worker count and to the serial Run's, and a run killed and
// resumed from its checkpoints finishes with byte-identical output.
//
// Shards run under a supervisor: a worker that panics or fails on I/O
// is restarted from its last good checkpoint (MaxShardRestarts times),
// and determinism makes the re-measurement converge on the same bytes.
func RunStreamed(spec Spec, opts StreamOptions) (*StreamResults, error) {
	if opts.NewAccumulator == nil {
		return nil, fmt.Errorf("study: StreamOptions.NewAccumulator is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.TotalProbes > 0 && workers > spec.TotalProbes {
		workers = spec.TotalProbes
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if opts.CheckpointDir != "" {
		if err := fsys.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("study: creating checkpoint dir: %w", err)
		}
	}
	maxRestarts := opts.MaxShardRestarts
	if maxRestarts == 0 {
		maxRestarts = 3
	} else if maxRestarts < 0 {
		maxRestarts = 0
	}

	var warnMu sync.Mutex
	var warnings []string
	warnf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		warnMu.Lock()
		warnings = append(warnings, msg)
		if opts.Warnf != nil {
			opts.Warnf("%s", msg)
		}
		warnMu.Unlock()
	}

	tpl := NewWorldTemplate(spec)
	accs := make([]Accumulator, workers)
	shardRegs := make([]*metrics.Registry, workers)
	shardErrs := make([]string, workers)
	folded := make([]int, workers)
	skipped := make([]int, workers)
	stopped := make([]bool, workers)
	restarts := make([]int, workers)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			start := time.Now()
			for attempt := 0; ; attempt++ {
				// Each attempt starts from a clean slot: a failed attempt's
				// accumulator (and registry) is discarded wholesale, so
				// nothing it half-counted can double into the merge.
				accs[k] = nil
				a := &shardAttempt{tpl: tpl, spec: spec, k: k, workers: workers, opts: opts,
					fsys: fsys, attempt: attempt, warnf: warnf, accSlot: &accs[k]}
				reg, n, skip, halt, err := a.run()
				if err == nil {
					shardRegs[k], folded[k], skipped[k], stopped[k] = reg, n, skip, halt
					if opts.Progress != nil {
						progressMu.Lock()
						opts.Progress(k, workers, n+skip, time.Since(start))
						progressMu.Unlock()
					}
					return
				}
				if attempt >= maxRestarts {
					shardErrs[k] = fmt.Sprintf("shard %d/%d: %v (after %d restarts)", k, workers, err, attempt)
					shardRegs[k] = reg
					accs[k] = nil
					return
				}
				restarts[k]++
				warnf("study: shard %d/%d failed: %v; restarting from last good checkpoint (restart %d/%d)",
					k, workers, err, attempt+1, maxRestarts)
			}
		}(k)
	}
	wg.Wait()

	res := &StreamResults{Spec: spec, Acc: opts.NewAccumulator(-1), Warnings: warnings}
	for k := 0; k < workers; k++ {
		res.Restarts += restarts[k]
		if shardErrs[k] != "" {
			res.Errors = append(res.Errors, shardErrs[k])
			continue
		}
		if accs[k] != nil {
			if err := res.Acc.Merge(accs[k]); err != nil {
				return nil, err
			}
		}
		res.Folded += folded[k]
		res.Skipped += skipped[k]
		res.Stopped = res.Stopped || stopped[k]
	}
	if !spec.DisableMetrics {
		res.Metrics = metrics.New()
		for _, r := range shardRegs {
			res.Metrics.Merge(r)
		}
		// Supervision happens above the per-shard registries (a restarted
		// attempt's registry is discarded), so the restart count lands on
		// the merged registry directly. Diagnostic: an undisturbed run and
		// a restarted one must render the same Stable snapshot.
		res.Metrics.Counter("study.shard_restarts", metrics.Diagnostic).Add(int64(res.Restarts))
	}
	return res, nil
}

// shardAttempt is one supervised execution of shard k's worker.
type shardAttempt struct {
	tpl        *WorldTemplate
	spec       Spec
	k, workers int
	opts       StreamOptions
	fsys       faultfs.FS
	attempt    int
	warnf      func(string, ...any)
	// accSlot is the supervisor's slot for the shard's accumulator, so
	// a partially folded state survives a contained panic (the
	// supervisor discards it, but the slot must not hold a stale value).
	accSlot *Accumulator
}

// prologue is the shard's setup before its fold loop: a fresh
// accumulator in the supervisor's slot, the checkpoint store (nil
// without CheckpointDir; loaded on resume, cleared on a fresh run), the
// restored metric snapshot and recovery accounting on the shard world's
// registry, and the sink (nil without NewSink) opened at skip, the
// records the loaded checkpoint already covers.
func (a *shardAttempt) prologue(world *World) (acc Accumulator, store *ckStore, sink RecordSink, skip int, err error) {
	acc = a.opts.NewAccumulator(a.k)
	*a.accSlot = acc
	recovery := ckFresh
	if a.opts.CheckpointDir != "" {
		store = newCkStore(a.fsys, a.opts.CheckpointDir, a.k, a.workers, checkpointFingerprint(a.spec, a.k, a.workers))
		// A supervisor restart (attempt > 0) always resumes: the last
		// good checkpoint is the whole point of restarting.
		if a.opts.Resume || a.attempt > 0 {
			ck, class, detail := store.load()
			recovery = class
			if detail != "" {
				a.warnf("study: shard %d/%d checkpoint recovery (%s): %s", a.k, a.workers, class, detail)
			}
			if ck != nil {
				if lerr := acc.LoadState(ck.Acc); lerr != nil {
					// The envelope's CRC passed but the accumulator rejects
					// the state (implementation drift): recoverable like any
					// other corruption — restart from cursor 0.
					a.warnf("study: shard %d/%d checkpoint state rejected (%v); restarting from cursor 0", a.k, a.workers, lerr)
					acc = a.opts.NewAccumulator(a.k)
					*a.accSlot = acc
					recovery = ckAllCorrupt
				} else {
					skip = ck.Cursor
					world.Metrics.AddSnapshot(ck.Metrics)
				}
			}
		} else {
			// A fresh (non-resume) run invalidates whatever an earlier run
			// left in the directory, so a later supervisor restart cannot
			// resurrect a stale cursor from a previous identical spec.
			store.clear()
		}
	}
	world.studyMetrics.noteResumeSkipped(skip)
	if recovery.recovered() {
		world.studyMetrics.noteCheckpointRecovery()
	}
	if a.opts.NewSink != nil {
		sink, err = a.opts.NewSink(a.k, a.workers, skip)
	}
	return acc, store, sink, skip, err
}

// run measures the shard in one world, folding each record into the
// accumulator and sink as it completes and checkpointing every
// CheckpointEvery records. It converts a panic into an error the
// supervisor can restart on, and returns the shard registry, the
// records folded this attempt, the records skipped via checkpoint, and
// whether StopAfterProbes halted the sweep.
func (a *shardAttempt) run() (reg *metrics.Registry, folded, skip int, halted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	world := a.tpl.Build(a.spec.Shard(a.k, a.workers))
	reg = world.Metrics
	acc, store, sink, skip, err := a.prologue(world)
	if err != nil {
		return reg, 0, skip, false, err
	}
	every := a.opts.CheckpointEvery
	if every <= 0 {
		every = 1000
	}

	var flusher SinkFlusher
	if f, ok := sink.(SinkFlusher); ok {
		flusher = f
	}

	var ioErr error
	var exp ProbeExport // reused across records; serialized before the next fill
	streamRecords(world, skip, func(rec *ProbeRecord) bool {
		acc.Fold(rec)
		if sink != nil && ioErr == nil {
			ExportRecordInto(rec, &exp)
			ioErr = sink.Append(exp)
		}
		folded++
		if store != nil && folded%every == 0 && ioErr == nil {
			// The checkpoint cursor must never run ahead of the sink's
			// durable rows: flush buffered appends first, so a kill right
			// after the checkpoint leaves at least cursor rows on disk
			// (surplus rows are truncated on resume; missing rows would be
			// unrecoverable).
			if flusher != nil {
				ioErr = flusher.Flush()
			}
			if ioErr == nil {
				// A failed checkpoint store is not fatal: the previous
				// generation is still intact in the other slot, and the
				// next interval retries. Worst case a crash re-measures one
				// extra interval.
				if cerr := store.store(skip+folded, acc, reg); cerr != nil {
					world.studyMetrics.noteCheckpointWriteFailure()
					a.warnf("study: shard %d/%d checkpoint write at cursor %d failed (retrying next interval): %v",
						a.k, a.workers, skip+folded, cerr)
				} else {
					world.studyMetrics.noteCheckpoint()
				}
			}
		}
		if a.opts.StopAfterProbes > 0 && folded >= a.opts.StopAfterProbes {
			halted = true
			return false
		}
		return ioErr == nil
	})
	if sink != nil {
		cerr := sink.Close()
		if ioErr == nil {
			ioErr = cerr
		}
		if ss, ok := sink.(SinkStatser); ok {
			world.studyMetrics.noteSinkHealing(ss.SinkStats())
		}
	}
	if ioErr != nil {
		return reg, folded, skip, halted, ioErr
	}
	// The final checkpoint marks the shard complete; a resumed run skips
	// straight to the merge. Deliberately omitted after a simulated
	// crash — a real kill would not have written it either. A failed
	// final store is non-fatal too: a later resume re-measures the tail
	// past the last durable cursor and lands on the same bytes.
	if store != nil && !halted {
		if cerr := store.store(skip+folded, acc, reg); cerr != nil {
			world.studyMetrics.noteCheckpointWriteFailure()
			a.warnf("study: shard %d/%d final checkpoint failed (a resume will re-measure the tail): %v", a.k, a.workers, cerr)
		} else {
			world.studyMetrics.noteCheckpoint()
		}
	}
	return reg, folded, skip, halted, nil
}

// TruncateSinkFile trims a line-oriented sink file back to its first
// records lines — the prefix a shard's checkpoint covers. A resuming
// caller runs this before reopening the file in append mode, discarding
// both whole records written after the last checkpoint and any partial
// line the kill left behind; the finished file is then byte-identical
// to an uninterrupted run's. A missing file is a no-op.
func TruncateSinkFile(path string, records int) error {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	off, lines := 0, 0
	for ; lines < records; lines++ {
		j := bytes.IndexByte(blob[off:], '\n')
		if j < 0 {
			// Fewer complete lines than the checkpoint covers: the file
			// is shorter than the checkpoint claims, which means the
			// sink and checkpoint disagree — refuse to guess.
			return fmt.Errorf("study: %s has only %d complete lines, checkpoint covers %d", path, lines, records)
		}
		off += j + 1
	}
	if off == len(blob) {
		return nil
	}
	// Truncate in place rather than rewriting: the kept prefix is
	// already durable, so shortening the file cannot tear it.
	return os.Truncate(path, int64(off))
}
