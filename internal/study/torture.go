package study

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/dnswatch/dnsloc/internal/faultfs"
)

// Crash-torture harness: the robustness layer's headline proof. A
// campaign runs the streamed pipeline over and over on a fault-injected
// filesystem, killing it mid-flight, rotting its checkpoint and sink
// files between runs, and resuming — then demands the final tables,
// sink files, and Stable metrics snapshot are byte-identical to an
// undisturbed run. Every corruption decision comes from the campaign
// seed, so a CI failure replays exactly with `pilotstudy -torture-seed`.

// TortureOptions configure a crash-torture campaign.
type TortureOptions struct {
	// Spec is the run shape tortured and referenced; required.
	Spec Spec
	// Workers is the shard count; <= 0 means 4.
	Workers int
	// Cycles is the number of kill/corrupt/resume rounds; the final
	// round always runs to completion. <= 0 means 30.
	Cycles int
	// Seed drives every randomized choice: kill points, which files rot
	// and how, and the per-cycle faultfs schedules.
	Seed int64
	// Dir is the campaign's scratch directory (checkpoints, sinks, and
	// the reference run's sinks live under it); required.
	Dir string
	// CheckpointEvery is the tortured run's checkpoint interval; <= 0
	// means 5 (small, so kills land between checkpoints).
	CheckpointEvery int
	// NewAccumulator builds shard accumulators, as in StreamOptions;
	// required.
	NewAccumulator func(shard int) Accumulator
	// Render maps a completed run to its deterministic output surface
	// (tables, figures, Stable metrics); required. The harness compares
	// it byte-for-byte between the tortured and undisturbed runs.
	Render func(*StreamResults) string
	// Warnf, when non-nil, receives the pipeline's self-healing
	// warnings live.
	Warnf func(format string, args ...any)
}

// TortureReport is a campaign's outcome.
type TortureReport struct {
	// Cycles is the rounds executed; Kills how many were killed
	// mid-flight (the final round never is).
	Cycles, Kills int
	// Corruptions counts each between-cycle corruption kind injected:
	// checkpoint_bitflip, sink_tear, sink_garbage,
	// both_generations_corrupt.
	Corruptions map[string]int
	// FaultCounts sums the faultfs injections across all cycles,
	// checkpoint and sink filesystems combined.
	FaultCounts map[faultfs.Class]int64
	// Restarts and Warnings sum the supervisor restarts and
	// self-healing warnings across cycles.
	Restarts, Warnings int
	// CheckpointRecoveries, CheckpointWriteFailures, and SinkRetries
	// are the final run's diagnostic counters — cumulative, because
	// checkpoints carry the counters forward across resumes.
	CheckpointRecoveries, CheckpointWriteFailures, SinkRetries int64
	// OutputIdentical and SinksIdentical are the acceptance verdicts:
	// rendered output and concatenated sink bytes match the undisturbed
	// run exactly.
	OutputIdentical, SinksIdentical bool
	// Diff describes the first divergence when a verdict is false.
	Diff string
}

// Passed reports full byte-identity with the undisturbed run.
func (r *TortureReport) Passed() bool { return r.OutputIdentical && r.SinksIdentical }

// Summary renders the campaign one line per fact, for CLI and CI logs.
func (r *TortureReport) Summary() string {
	verdict := "PASS: tortured run byte-identical to undisturbed run"
	if !r.Passed() {
		verdict = "FAIL: " + r.Diff
	}
	corr := ""
	kinds := make([]string, 0, len(r.Corruptions))
	for k := range r.Corruptions {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		corr += fmt.Sprintf(" %s=%d", k, r.Corruptions[k])
	}
	faults := ""
	classes := make([]string, 0, len(r.FaultCounts))
	for c := range r.FaultCounts {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		faults += fmt.Sprintf(" %s=%d", c, r.FaultCounts[faultfs.Class(c)])
	}
	return fmt.Sprintf("torture: cycles=%d kills=%d restarts=%d warnings=%d\n"+
		"torture: corruption:%s\n"+
		"torture: injected faults:%s\n"+
		"torture: recoveries=%d checkpoint_write_failures=%d sink_retries=%d\n"+
		"torture: %s",
		r.Cycles, r.Kills, r.Restarts, r.Warnings, corr, faults,
		r.CheckpointRecoveries, r.CheckpointWriteFailures, r.SinkRetries, verdict)
}

// retrySinks opens per-shard JSONL sinks through a fault-injecting
// filesystem, wrapped in the self-healing RetrySink — the tortured
// configuration.
func retrySinks(dir string, fsys faultfs.FS) func(k, workers, resumedAt int) (RecordSink, error) {
	return func(k, workers, resumedAt int) (RecordSink, error) {
		path := ShardFile(filepath.Join(dir, "records"), k, workers)
		if err := TruncateSinkFile(path, resumedAt); err != nil {
			return nil, err
		}
		open := func() (RecordSink, error) {
			f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return NewJSONLSink(f), nil
		}
		return NewRetrySink(path, resumedAt, SinkRetryPolicy{MaxRetries: 4, Backoff: 50 * time.Microsecond}, open)
	}
}

// readSinkFiles concatenates the shard sink files in shard order.
func readSinkFiles(dir string, workers int) (string, error) {
	out := make([]byte, 0, 1<<16)
	for k := 0; k < workers; k++ {
		blob, err := os.ReadFile(ShardFile(filepath.Join(dir, "records"), k, workers))
		if err != nil {
			return "", err
		}
		out = append(out, blob...)
	}
	return string(out), nil
}

// snapCounter reads one counter from a snapshot (0 when absent).
func snapCounter(snap *Snapshot, name string) int64 {
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// firstDiff locates the first divergent byte between two outputs.
func firstDiff(kind, want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("%s diverges at byte %d (want %d bytes, got %d)", kind, i, len(want), len(got))
		}
	}
	return fmt.Sprintf("%s diverges in length (want %d bytes, got %d)", kind, len(want), len(got))
}

// RunTorture executes a crash-torture campaign: an undisturbed
// reference run, then Cycles rounds of kill → corrupt → resume on
// fault-injected filesystems, and a final byte-for-byte comparison.
// An error return means the harness itself could not run (bad options,
// unrecoverable shard failure); a completed campaign whose output
// diverged returns a report with Passed() == false and a nil error.
func RunTorture(o TortureOptions) (*TortureReport, error) {
	if o.NewAccumulator == nil || o.Render == nil || o.Dir == "" {
		return nil, fmt.Errorf("study: TortureOptions requires NewAccumulator, Render, and Dir")
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	cycles := o.Cycles
	if cycles <= 0 {
		cycles = 30
	}
	every := o.CheckpointEvery
	if every <= 0 {
		every = 5
	}
	rng := rand.New(rand.NewSource(o.Seed))

	refDir := filepath.Join(o.Dir, "ref")
	ckDir := filepath.Join(o.Dir, "checkpoints")
	sinkDir := filepath.Join(o.Dir, "sinks")
	for _, d := range []string{refDir, ckDir, sinkDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}

	// Undisturbed reference: same spec and worker count, real
	// filesystem, no checkpoints, no injected faults.
	refRes, err := RunStreamed(o.Spec, StreamOptions{
		Workers:        workers,
		NewAccumulator: o.NewAccumulator,
		NewSink:        JSONLFiles(filepath.Join(refDir, "records")),
	})
	if err != nil {
		return nil, err
	}
	if len(refRes.Errors) != 0 {
		return nil, fmt.Errorf("study: torture reference run failed: %v", refRes.Errors)
	}
	want := o.Render(refRes)
	wantSinks, err := readSinkFiles(refDir, workers)
	if err != nil {
		return nil, err
	}

	rep := &TortureReport{
		Corruptions: make(map[string]int),
		FaultCounts: make(map[faultfs.Class]int64),
	}
	perShard := o.Spec.TotalProbes/workers + 1
	bothCorruptAt := cycles / 2 // one designated both-generations-corrupt round

	var finalRes *StreamResults
	for cycle := 0; cycle < cycles; cycle++ {
		last := cycle == cycles-1
		// Fresh fault planes each round (a reboot resets the kernel's
		// mood too); distinct seeds so checkpoint and sink faults are
		// independent streams.
		ckFS := faultfs.New(faultfs.Schedule{Seed: o.Seed + int64(cycle)*2, Root: ckDir, Rates: map[faultfs.Class]float64{
			faultfs.TornWrite:  0.04,
			faultfs.SyncFail:   0.04,
			faultfs.SyncSlow:   0.08,
			faultfs.RenameFail: 0.02,
		}})
		// No ENOSPC on sinks: degradation legitimately drops sink rows,
		// which would break the byte-identity this harness asserts.
		// (ENOSPC handling has its own unit tests.)
		sinkFS := faultfs.New(faultfs.Schedule{Seed: o.Seed + int64(cycle)*2 + 1, Root: sinkDir, Rates: map[faultfs.Class]float64{
			faultfs.TornWrite: 0.03,
			faultfs.WriteEIO:  0.04,
		}})
		rng.Intn(3) // discarded: keeps every seed's kill points and corruption choices
		run := StreamOptions{
			Workers:         workers,
			NewAccumulator:  o.NewAccumulator,
			CheckpointDir:   ckDir,
			CheckpointEvery: every,
			Resume:          cycle > 0,
			FS:              ckFS,
			NewSink:         retrySinks(sinkDir, sinkFS),
			Warnf:           o.Warnf,
		}
		if !last {
			run.StopAfterProbes = 3 + rng.Intn(perShard/2+1)
			rep.Kills++
		}
		res, err := RunStreamed(o.Spec, run)
		if err != nil {
			return nil, fmt.Errorf("study: torture cycle %d: %w", cycle, err)
		}
		if len(res.Errors) != 0 {
			return nil, fmt.Errorf("study: torture cycle %d had fatal shard errors: %v", cycle, res.Errors)
		}
		rep.Cycles++
		rep.Restarts += res.Restarts
		rep.Warnings += len(res.Warnings)
		for c, n := range ckFS.Counts() {
			rep.FaultCounts[c] += n
		}
		for c, n := range sinkFS.Counts() {
			rep.FaultCounts[c] += n
		}
		finalRes = res
		if last {
			break
		}
		tortureCorrupt(o, rep, rng, ckDir, sinkDir, workers, cycle == bothCorruptAt)
	}

	got := o.Render(finalRes)
	gotSinks, err := readSinkFiles(sinkDir, workers)
	if err != nil {
		return nil, err
	}
	if snap := finalRes.MetricsSnapshot(true); snap != nil {
		rep.CheckpointRecoveries = snapCounter(snap, "study.checkpoint_recoveries")
		rep.CheckpointWriteFailures = snapCounter(snap, "study.checkpoint_write_failures")
		rep.SinkRetries = snapCounter(snap, "study.sink_retries")
	}
	rep.OutputIdentical = got == want
	rep.SinksIdentical = gotSinks == wantSinks
	if !rep.OutputIdentical {
		rep.Diff = firstDiff("rendered output", want, got)
	} else if !rep.SinksIdentical {
		rep.Diff = firstDiff("sink files", wantSinks, gotSinks)
	}
	return rep, nil
}

// tortureCorrupt rots the on-disk state between rounds — the "machine
// was off, the disk was not idle" phase. Checkpoint corruption comes
// first; sink corruption then bounds its tearing by the cursor the
// NEXT run will actually load, so it never destroys rows the resume
// protocol considers durable (that failure mode is unrecoverable by
// design and unit-tested separately).
func tortureCorrupt(o TortureOptions, rep *TortureReport, rng *rand.Rand, ckDir, sinkDir string, workers int, bothCorrupt bool) {
	if bothCorrupt {
		// The designated worst case: every generation of one shard's
		// checkpoints rots; the shard must restart from cursor 0.
		k := shardWithSlots(o.Spec, ckDir, workers, rng.Intn(workers))
		slots := CheckpointSlotPaths(ckDir, k, workers)
		for _, slot := range slots {
			faultfs.FlipBit(slot, rng.Uint64()) //nolint:errcheck // missing slot = no-op
		}
		rep.Corruptions["both_generations_corrupt"]++
	} else if rng.Intn(2) == 0 {
		k := rng.Intn(workers)
		slots := CheckpointSlotPaths(ckDir, k, workers)
		faultfs.FlipBit(slots[rng.Intn(2)], rng.Uint64()) //nolint:errcheck
		rep.Corruptions["checkpoint_bitflip"]++
	}

	k := rng.Intn(workers)
	path := ShardFile(filepath.Join(sinkDir, "records"), k, workers)
	switch rng.Intn(2) {
	case 0:
		// Tear the sink tail back to anywhere at or past the durable
		// prefix of the checkpoint the next run will load.
		cursor := tortureShardCursor(o.Spec, ckDir, k, workers)
		tearSinkTail(path, cursor, rng)
		rep.Corruptions["sink_tear"]++
	case 1:
		faultfs.AppendGarbage(path, []byte(`{"probe_id":99999,"cou`)) //nolint:errcheck
		rep.Corruptions["sink_garbage"]++
	}
}

// shardWithSlots returns a shard that has both generation slots on
// disk, preferring the given one; falls back to the given shard when
// none does yet.
func shardWithSlots(spec Spec, ckDir string, workers, prefer int) int {
	hasBoth := func(k int) bool {
		slots := CheckpointSlotPaths(ckDir, k, workers)
		for _, s := range slots {
			if _, err := os.Stat(s); err != nil {
				return false
			}
		}
		return true
	}
	if hasBoth(prefer) {
		return prefer
	}
	for k := 0; k < workers; k++ {
		if hasBoth(k) {
			return k
		}
	}
	return prefer
}

// tortureShardCursor loads the cursor the next resume will see for
// shard k — after this round's checkpoint corruption, so a corrupted
// newest generation reports the older one's (smaller) cursor.
func tortureShardCursor(spec Spec, ckDir string, k, workers int) int {
	st := newCkStore(faultfs.OS{}, ckDir, k, workers, checkpointFingerprint(spec, k, workers))
	ck, _, _ := st.load()
	if ck == nil {
		return 0
	}
	return ck.Cursor
}

// tearSinkTail truncates path to a random length at or past the byte
// offset of line minLines — modeling a torn tail without destroying
// the durable prefix.
func tearSinkTail(path string, minLines int, rng *rand.Rand) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return
	}
	off := 0
	for i := 0; i < minLines && off < len(blob); i++ {
		j := bytes.IndexByte(blob[off:], '\n')
		if j < 0 {
			off = len(blob)
			break
		}
		off += j + 1
	}
	if off >= len(blob) {
		return
	}
	target := off + rng.Intn(len(blob)-off+1)
	os.Truncate(path, int64(target)) //nolint:errcheck
}
