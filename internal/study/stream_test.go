package study_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/study"
)

// streamSpec is the streaming tests' shared run shape: small enough to
// re-run many times, large enough that every shard holds interceptions.
func streamSpec() study.Spec { return study.PaperSpec().Scale(0.0128) } // ~128 probes

func streamOpts(workers int) study.StreamOptions {
	return study.StreamOptions{
		Workers:        workers,
		NewAccumulator: func(int) study.Accumulator { return analysis.NewAccumulator() },
	}
}

// renderStream renders a streamed run's full deterministic surface:
// every table and figure from the merged accumulator plus the Stable
// metric snapshot.
func renderStream(t *testing.T, res *study.StreamResults) string {
	t.Helper()
	if len(res.Errors) != 0 {
		t.Fatalf("stream errors: %v", res.Errors)
	}
	acc := res.Acc.(*analysis.Accumulator)
	t4 := acc.Table4()
	return analysis.FormatTable4(t4) + analysis.CSVTable4(t4) +
		analysis.FormatTable5(acc.Table5()) +
		analysis.FormatFigure3(acc.Figure3(10)) +
		analysis.FormatFigure4(acc.Figure4(10)) +
		analysis.FormatAccuracy(acc.Accuracy()) +
		string(res.MetricsSnapshot(false).JSON())
}

// renderInMemory renders the identical surface from the in-memory
// pipeline's record slice.
func renderInMemory(t *testing.T, res *study.Results) string {
	t.Helper()
	if len(res.Errors) != 0 {
		t.Fatalf("shard errors: %v", res.Errors)
	}
	t4 := analysis.BuildTable4(res)
	return analysis.FormatTable4(t4) + analysis.CSVTable4(t4) +
		analysis.FormatTable5(analysis.BuildTable5(res)) +
		analysis.FormatFigure3(analysis.BuildFigure3(res, 10)) +
		analysis.FormatFigure4(analysis.BuildFigure4(res, 10)) +
		analysis.FormatAccuracy(analysis.BuildAccuracy(res)) +
		string(res.MetricsSnapshot(false).JSON())
}

// TestStreamedMatchesInMemory is the tentpole's acceptance property:
// the streamed pipeline at 1 and 4 workers renders byte-identical
// tables, figures, CSV, and Stable metric snapshot to the in-memory
// pipeline.
func TestStreamedMatchesInMemory(t *testing.T) {
	spec := streamSpec()
	want := renderInMemory(t, study.RunSharded(spec, study.EngineOptions{Workers: 2}))
	for _, workers := range []int{1, 4} {
		res, err := study.RunStreamed(spec, streamOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderStream(t, res); got != want {
			t.Errorf("streamed workers=%d diverges from in-memory pipeline:\n--- in-memory ---\n%s--- streamed ---\n%s",
				workers, want, got)
		}
		if res.Folded == 0 {
			t.Errorf("workers=%d: folded no records", workers)
		}
	}
}

// TestStreamedRetainsNoRecords: the streaming pipeline's records
// retained gauge stays at zero — no shard ever accumulates a record
// slice — while the in-memory pipeline's equals its record count.
func TestStreamedRetainsNoRecords(t *testing.T) {
	spec := streamSpec()
	res, err := study.RunStreamed(spec, streamOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, res.MetricsSnapshot(true), "study.records_retained"); got != 0 {
		t.Errorf("streamed records_retained = %d, want 0", got)
	}
	mem := study.RunSharded(spec, study.EngineOptions{Workers: 2})
	if got := gaugeValue(t, mem.MetricsSnapshot(true), "study.records_retained"); got == 0 {
		t.Error("in-memory records_retained = 0, want the largest shard's record count")
	}
}

func gaugeValue(t *testing.T, snap *study.Snapshot, name string) int64 {
	t.Helper()
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

// sinkPath returns shard k's JSONL file under dir.
func sinkPath(dir string, k, workers int) string {
	return filepath.Join(dir, fmt.Sprintf("records-%d-of-%d.jsonl", k, workers))
}

// fileSinks wires per-shard JSONL file sinks into StreamOptions,
// truncating each file back to its checkpoint cursor on resume — the
// caller-side half of the sink resume contract.
func fileSinks(t *testing.T, dir string) func(k, workers, resumedAt int) (study.RecordSink, error) {
	t.Helper()
	return func(k, workers, resumedAt int) (study.RecordSink, error) {
		path := sinkPath(dir, k, workers)
		if err := study.TruncateSinkFile(path, resumedAt); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return study.NewJSONLSink(f), nil
	}
}

// readSinks concatenates the shard sink files in shard order.
func readSinks(t *testing.T, dir string, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	for k := 0; k < workers; k++ {
		blob, err := os.ReadFile(sinkPath(dir, k, workers))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
	}
	return buf.String()
}

// TestStreamSinkMatchesExport: a single-shard streamed run's JSONL sink
// holds exactly the in-memory pipeline's export, line for line.
func TestStreamSinkMatchesExport(t *testing.T) {
	spec := streamSpec()
	dir := t.TempDir()
	opts := streamOpts(1)
	opts.NewSink = fileSinks(t, dir)
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("stream errors: %v", res.Errors)
	}

	mem := study.Run(study.BuildWorld(spec))
	var want bytes.Buffer
	sink := study.NewJSONLSink(&want)
	for _, e := range mem.Export() {
		if err := sink.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSinks(t, dir, 1); got != want.String() {
		t.Errorf("sink output diverges from Export():\n--- want %d bytes, got %d bytes ---", want.Len(), len(got))
	}
}

// TestStreamCheckpointResume is the kill-and-resume acceptance test:
// a run halted mid-flight (no final checkpoint, exactly as a kill -9
// would leave the directory) and resumed from its shard checkpoints
// finishes with byte-identical tables, Stable metrics, and sink files
// to an uninterrupted streamed run.
func TestStreamCheckpointResume(t *testing.T) {
	spec := streamSpec()
	const workers = 2

	// Uninterrupted reference run, with sinks.
	refDir := t.TempDir()
	ref := streamOpts(workers)
	ref.NewSink = fileSinks(t, refDir)
	refRes, err := study.RunStreamed(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := renderStream(t, refRes)
	wantSinks := readSinks(t, refDir, workers)

	// Killed run: checkpoint every 10 records, halt each shard at 25 —
	// between checkpoints, so the sink files run ahead of the cursor.
	ckDir := t.TempDir()
	sinkDir := t.TempDir()
	killed := streamOpts(workers)
	killed.CheckpointDir = ckDir
	killed.CheckpointEvery = 10
	killed.StopAfterProbes = 25
	killed.NewSink = fileSinks(t, sinkDir)
	kRes, err := study.RunStreamed(spec, killed)
	if err != nil {
		t.Fatal(err)
	}
	if !kRes.Stopped {
		t.Fatal("StopAfterProbes did not halt the run")
	}
	if got := counterValue(t, kRes.MetricsSnapshot(true), "study.checkpoints_written"); got == 0 {
		t.Error("killed run wrote no checkpoints")
	}

	// Resume from the checkpoints and finish.
	resumed := streamOpts(workers)
	resumed.CheckpointDir = ckDir
	resumed.CheckpointEvery = 10
	resumed.Resume = true
	resumed.NewSink = fileSinks(t, sinkDir)
	rRes, err := study.RunStreamed(spec, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if rRes.Skipped == 0 {
		t.Error("resumed run skipped no probes — checkpoints were not loaded")
	}
	if got := renderStream(t, rRes); got != want {
		t.Errorf("resumed run diverges from uninterrupted run:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			want, got)
	}
	if got := readSinks(t, sinkDir, workers); got != wantSinks {
		t.Errorf("resumed sink files diverge from uninterrupted run's (%d vs %d bytes)",
			len(got), len(wantSinks))
	}
}

// killSink wraps a JSONL sink but models a kill -9 at shutdown: Close
// closes the file WITHOUT flushing the sink's buffer, so every row
// appended since the last explicit Flush is lost — exactly what a
// buffered sink leaves behind when the process dies.
type killSink struct {
	inner *study.JSONLSink
	f     *os.File
}

func (s *killSink) Append(e study.ProbeExport) error { return s.inner.Append(e) }
func (s *killSink) Flush() error                     { return s.inner.Flush() }
func (s *killSink) Close() error                     { return s.f.Close() }

// TestStreamKillSinkResume is the sink-buffering half of the kill
// contract: rows buffered in a sink when the process dies are lost,
// but because each checkpoint flushes the sink first, the file always
// holds at least the cursor's rows. Resume truncates the surplus and
// appends; the finished files are byte-identical to an uninterrupted
// run's — no row duplicated, none lost. Before the flush-before-
// checkpoint fix this test failed in TruncateSinkFile: the checkpoint
// cursor claimed rows the dead sink's buffer never wrote.
func TestStreamKillSinkResume(t *testing.T) {
	spec := streamSpec()
	const workers = 2

	refDir := t.TempDir()
	ref := streamOpts(workers)
	ref.NewSink = fileSinks(t, refDir)
	refRes, err := study.RunStreamed(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := renderStream(t, refRes)
	wantSinks := readSinks(t, refDir, workers)

	// Killed run: checkpoints at 10 and 20, halt at 25 — five rows die
	// in the sink buffer because killSink.Close never flushes.
	ckDir := t.TempDir()
	sinkDir := t.TempDir()
	killed := streamOpts(workers)
	killed.CheckpointDir = ckDir
	killed.CheckpointEvery = 10
	killed.StopAfterProbes = 25
	killed.NewSink = func(k, workers, resumedAt int) (study.RecordSink, error) {
		path := sinkPath(sinkDir, k, workers)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &killSink{inner: study.NewJSONLSink(f), f: f}, nil
	}
	kRes, err := study.RunStreamed(spec, killed)
	if err != nil {
		t.Fatal(err)
	}
	if !kRes.Stopped {
		t.Fatal("StopAfterProbes did not halt the run")
	}
	for k := 0; k < workers; k++ {
		blob, err := os.ReadFile(sinkPath(sinkDir, k, workers))
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint-time flushes persisted exactly the cursor's 20
		// rows; the 5 appended after the last checkpoint died buffered.
		if lines := bytes.Count(blob, []byte{'\n'}); lines != 20 {
			t.Errorf("shard %d sink holds %d rows after kill, want the checkpoint cursor's 20", k, lines)
		}
	}

	resumed := streamOpts(workers)
	resumed.CheckpointDir = ckDir
	resumed.CheckpointEvery = 10
	resumed.Resume = true
	resumed.NewSink = fileSinks(t, sinkDir)
	rRes, err := study.RunStreamed(spec, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if rRes.Skipped == 0 {
		t.Error("resumed run skipped no probes — checkpoints were not loaded")
	}
	if got := renderStream(t, rRes); got != want {
		t.Errorf("resume after buffered-sink kill diverges from uninterrupted run")
	}
	if got := readSinks(t, sinkDir, workers); got != wantSinks {
		t.Errorf("sink files after buffered-sink kill + resume diverge (%d vs %d bytes)",
			len(got), len(wantSinks))
	}
}

// TestStreamResumeForeignCheckpointRecovers: a checkpoint written by a
// different run shape must neither seed the shard with wrong state nor
// fail the run — the shard restarts from cursor 0 with a warning, and
// the output matches a fresh run of the new spec exactly.
func TestStreamResumeForeignCheckpointRecovers(t *testing.T) {
	other := streamSpec()
	other.Seed++
	fresh, err := study.RunStreamed(other, streamOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	want := renderStream(t, fresh)

	dir := t.TempDir()
	first := streamOpts(1)
	first.CheckpointDir = dir
	if _, err := study.RunStreamed(streamSpec(), first); err != nil {
		t.Fatal(err)
	}
	resumed := streamOpts(1)
	resumed.CheckpointDir = dir
	resumed.Resume = true
	res, err := study.RunStreamed(other, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("foreign checkpoint failed the run instead of recovering: %v", res.Errors)
	}
	if len(res.Warnings) == 0 {
		t.Error("foreign-checkpoint recovery logged no warning")
	}
	if res.Skipped != 0 {
		t.Errorf("foreign checkpoint seeded the shard with %d skipped probes", res.Skipped)
	}
	if got := counterValue(t, res.MetricsSnapshot(true), "study.checkpoint_recoveries"); got == 0 {
		t.Error("foreign-checkpoint recovery not counted in study.checkpoint_recoveries")
	}
	if got := renderStream(t, res); got != want {
		t.Errorf("recovery from foreign checkpoint diverges from a fresh run:\n--- fresh ---\n%s--- recovered ---\n%s",
			want, got)
	}
}

// TestStreamResumeOfCompletedRun: resuming a run that already finished
// skips every probe and still renders the same output.
func TestStreamResumeOfCompletedRun(t *testing.T) {
	spec := streamSpec()
	dir := t.TempDir()
	opts := streamOpts(2)
	opts.CheckpointDir = dir
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderStream(t, res)

	again := streamOpts(2)
	again.CheckpointDir = dir
	again.Resume = true
	res2, err := study.RunStreamed(spec, again)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Folded != 0 {
		t.Errorf("resume of a completed run re-measured %d probes", res2.Folded)
	}
	if got := renderStream(t, res2); got != want {
		t.Errorf("resume of a completed run drifted:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func counterValue(t *testing.T, snap *study.Snapshot, name string) int64 {
	t.Helper()
	return gaugeValue(t, snap, name)
}

// brittleSink fails its shard's nth Append with EIO, once per process
// — modeling a one-off I/O failure a plain (non-retrying) sink cannot
// absorb, so it must escalate to the shard supervisor.
type brittleSink struct {
	inner   study.RecordSink
	n       int
	count   int
	tripped *bool
}

func (s *brittleSink) Append(e study.ProbeExport) error {
	s.count++
	if s.count == s.n && !*s.tripped {
		*s.tripped = true
		return &os.PathError{Op: "write", Path: "brittle", Err: syscall.EIO}
	}
	return s.inner.Append(e)
}
func (s *brittleSink) Flush() error {
	if f, ok := s.inner.(study.SinkFlusher); ok {
		return f.Flush()
	}
	return nil
}
func (s *brittleSink) Close() error { return s.inner.Close() }

// TestStreamSupervisorRestartsFailedShard: a shard whose sink fails
// hard mid-sweep is restarted from its last good checkpoint by the
// supervisor; the run reports no errors, counts the restart, and its
// output — tables, Stable metrics, sink files — is byte-identical to
// an undisturbed run's.
func TestStreamSupervisorRestartsFailedShard(t *testing.T) {
	spec := streamSpec()
	const workers = 2

	refDir := t.TempDir()
	ref := streamOpts(workers)
	ref.NewSink = fileSinks(t, refDir)
	refRes, err := study.RunStreamed(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := renderStream(t, refRes)
	wantSinks := readSinks(t, refDir, workers)

	ckDir := t.TempDir()
	sinkDir := t.TempDir()
	tripped := false
	opts := streamOpts(workers)
	opts.CheckpointDir = ckDir
	opts.CheckpointEvery = 10
	opts.NewSink = func(k, workers, resumedAt int) (study.RecordSink, error) {
		inner, err := fileSinks(t, sinkDir)(k, workers, resumedAt)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			// Fails once at the 15th append — past the cursor-10
			// checkpoint, so the restart resumes mid-shard.
			return &brittleSink{inner: inner, n: 15, tripped: &tripped}, nil
		}
		return inner, nil
	}
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("supervisor did not absorb the sink failure: %v", res.Errors)
	}
	if !tripped {
		t.Fatal("the brittle sink never tripped — test exercised nothing")
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	if len(res.Warnings) == 0 {
		t.Error("shard restart logged no warning")
	}
	if got := counterValue(t, res.MetricsSnapshot(true), "study.shard_restarts"); got != 1 {
		t.Errorf("study.shard_restarts = %d, want 1", got)
	}
	if got := renderStream(t, res); got != want {
		t.Errorf("restarted run diverges from undisturbed run")
	}
	if got := readSinks(t, sinkDir, workers); got != wantSinks {
		t.Errorf("restarted sink files diverge (%d vs %d bytes)", len(got), len(wantSinks))
	}
}

// panicAcc panics on its shard's nth Fold — the contained-panic half
// of the supervisor contract.
type panicAcc struct {
	study.Accumulator
	n       int
	count   int
	tripped *bool
}

func (a *panicAcc) Fold(rec *study.ProbeRecord) {
	a.count++
	if a.count == a.n {
		*a.tripped = true
		panic("injected accumulator panic")
	}
	a.Accumulator.Fold(rec)
}

// TestStreamSupervisorRestartsPanickedShard: a panicking shard worker
// restarts cleanly from its checkpoint; the poisoned attempt's
// accumulator is discarded wholesale so nothing double-counts.
func TestStreamSupervisorRestartsPanickedShard(t *testing.T) {
	spec := streamSpec()
	const workers = 2
	want := renderStream(t, mustStream(t, spec, streamOpts(workers)))

	// Only the first factory call for shard 0 gets the panicking
	// wrapper: the supervisor's restart attempt — and the merge phase,
	// which type-asserts — see plain accumulators.
	tripped := false
	handed := false
	opts := streamOpts(workers)
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 10
	opts.NewAccumulator = func(k int) study.Accumulator {
		acc := analysis.NewAccumulator()
		if k == 0 && !handed {
			handed = true
			return &panicAcc{Accumulator: acc, n: 15, tripped: &tripped}
		}
		return acc
	}
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("supervisor did not absorb the panic: %v", res.Errors)
	}
	if !tripped {
		t.Fatal("the panicking accumulator never tripped")
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	if got := renderStream(t, res); got != want {
		t.Errorf("restart after panic diverges from undisturbed run")
	}
}

// mustStream runs a streamed spec and fails the test on any error.
func mustStream(t *testing.T, spec study.Spec, opts study.StreamOptions) *study.StreamResults {
	t.Helper()
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamShardFailureAfterRestartBudget: a deterministic failure
// burns every restart and lands in Errors — supervision bounds, it
// does not loop forever.
func TestStreamShardFailureAfterRestartBudget(t *testing.T) {
	spec := streamSpec()
	opts := streamOpts(1)
	opts.MaxShardRestarts = 2
	opts.NewSink = func(k, workers, resumedAt int) (study.RecordSink, error) {
		return nil, &os.PathError{Op: "open", Path: "doomed", Err: syscall.EIO}
	}
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("Errors = %v, want exactly one contained shard failure", res.Errors)
	}
	if res.Restarts != 2 {
		t.Errorf("Restarts = %d, want the full budget of 2", res.Restarts)
	}
}

// TestTruncateSinkFile pins the truncation helper's contract, including
// the partial trailing line a kill -9 leaves in a buffered file.
func TestTruncateSinkFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "records.jsonl")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		t.Helper()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	write("a\nb\nc\nd\npart")
	if err := study.TruncateSinkFile(path, 2); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "a\nb\n" {
		t.Errorf("truncate to 2 lines = %q", got)
	}

	// Checkpoint claims records the file never got (buffered rows died
	// before any flush): must error, not silently under-resume.
	write("a\n")
	if err := study.TruncateSinkFile(path, 3); err == nil {
		t.Error("truncating past the file's line count did not error")
	}
	if err := study.TruncateSinkFile(filepath.Join(dir, "missing"), 5); err != nil {
		t.Errorf("missing file should be a no-op, got %v", err)
	}

	// A zero cursor empties the file.
	if err := study.TruncateSinkFile(path, 0); err != nil {
		t.Fatalf("truncate to 0: %v", err)
	}
	if got := read(); got != "" {
		t.Errorf("truncate to 0 = %q, want empty", got)
	}

	// Final line missing its newline: the complete lines before it are
	// countable and keepable; the unterminated tail is cut.
	write("a\nb\npartial-no-newline")
	if err := study.TruncateSinkFile(path, 2); err != nil {
		t.Fatalf("truncate with unterminated tail: %v", err)
	}
	if got := read(); got != "a\nb\n" {
		t.Errorf("unterminated-tail truncate = %q, want %q", got, "a\nb\n")
	}
}
