package study

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// scriptedSink writes one JSONL line per Append straight to the file
// (no buffering) and fails on scripted global append indices — torn
// (a partial line lands, then EIO) or clean (nothing lands).
type scriptedSink struct {
	f     *os.File
	calls *int
	torn  map[int]bool
	fail  map[int]error
}

func (s *scriptedSink) Append(e ProbeExport) error {
	i := *s.calls
	*s.calls++
	line := appendExportJSONLine(nil, &e)
	if s.torn[i] {
		s.f.Write(line[:len(line)/2]) //nolint:errcheck
		return &os.PathError{Op: "write", Path: s.f.Name(), Err: syscall.EIO}
	}
	if err := s.fail[i]; err != nil {
		return err
	}
	_, err := s.f.Write(line)
	return err
}

func (s *scriptedSink) Flush() error { return nil }
func (s *scriptedSink) Close() error { return s.f.Close() }

func retryTestExports(n int) []ProbeExport {
	out := make([]ProbeExport, n)
	for i := range out {
		out[i] = ProbeExport{
			ProbeID: i, Country: "nl", ASN: 3320, Org: "org-a",
			Responded: true, Verdict: "clean",
			InterceptedV4: []string{"resolver-a", "resolver-b"},
			TruthLocation: "none",
		}
	}
	return out
}

func wantJSONL(exports []ProbeExport) string {
	var blob []byte
	for i := range exports {
		blob = appendExportJSONLine(blob, &exports[i])
	}
	return string(blob)
}

func newScriptedRetrySink(t *testing.T, path string, torn map[int]bool, fail map[int]error) (*RetrySink, *int) {
	t.Helper()
	calls := new(int)
	open := func() (RecordSink, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &scriptedSink{f: f, calls: calls, torn: torn, fail: fail}, nil
	}
	s, err := NewRetrySink(path, 0, SinkRetryPolicy{Backoff: 10 * time.Microsecond}, open)
	if err != nil {
		t.Fatal(err)
	}
	return s, calls
}

// TestRetrySinkHealsTornWrite: a torn append (partial line on disk,
// EIO to the caller) heals transparently — the partial line is
// repaired away, the row replayed — and the finished file is exactly
// the undisturbed encoding.
func TestRetrySinkHealsTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	exports := retryTestExports(8)
	// Appends 2 and 5 tear; the replays (which consume later call
	// indices) succeed.
	s, _ := newScriptedRetrySink(t, path, map[int]bool{2: true, 5: true}, nil)
	for _, e := range exports {
		if err := s.Append(e); err != nil {
			t.Fatalf("Append returned %v despite healing", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != wantJSONL(exports) {
		t.Errorf("healed file diverges from undisturbed encoding (%d vs %d bytes)",
			len(blob), len(wantJSONL(exports)))
	}
	st := s.SinkStats()
	if st.Retries == 0 {
		t.Error("healing happened but Retries == 0")
	}
	if st.Degraded {
		t.Error("transient faults must not degrade the sink")
	}
}

// TestRetrySinkReplaysAfterFlushCycle: rows made durable by a Flush are
// never replayed; only the pending tail is.
func TestRetrySinkReplaysAfterFlushCycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	exports := retryTestExports(6)
	s, _ := newScriptedRetrySink(t, path, map[int]bool{4: true}, nil)
	for i, e := range exports {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(path)
	if string(blob) != wantJSONL(exports) {
		t.Errorf("file after flush+heal diverges (%d vs %d bytes)", len(blob), len(wantJSONL(exports)))
	}
}

// TestRetrySinkENOSPCDegrades: a full disk drops the sink permanently
// — Append keeps succeeding as a no-op so the shard's accumulator
// still folds — and the degradation is visible in SinkStats.
func TestRetrySinkENOSPCDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	exports := retryTestExports(8)
	enospc := &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	s, calls := newScriptedRetrySink(t, path, nil, map[int]error{3: enospc})
	for _, e := range exports {
		if err := s.Append(e); err != nil {
			t.Fatalf("Append after ENOSPC returned %v, want nil (degraded)", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.SinkStats()
	if !st.Degraded {
		t.Fatal("ENOSPC did not degrade the sink")
	}
	if *calls != 4 {
		t.Errorf("inner sink saw %d appends, want 4 (degraded sink must stop writing)", *calls)
	}
	blob, _ := os.ReadFile(path)
	if string(blob) != wantJSONL(exports[:3]) {
		t.Errorf("degraded sink file holds %d bytes, want the 3 rows before ENOSPC", len(blob))
	}
}

// TestRetrySinkUnhealable: when the file holds fewer rows than were
// durable, healing is impossible and the error escalates (to the shard
// supervisor in the engine).
func TestRetrySinkUnhealable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	if err := os.WriteFile(path, []byte("row\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := new(int)
	eio := &os.PathError{Op: "write", Path: path, Err: syscall.EIO}
	open := func() (RecordSink, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &scriptedSink{f: f, calls: calls, fail: map[int]error{0: eio}}, nil
	}
	// durable claims 5 rows; the file has 1.
	s, err := NewRetrySink(path, 5, SinkRetryPolicy{Backoff: 10 * time.Microsecond}, open)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(retryTestExports(1)[0]); err == nil {
		t.Fatal("heal invented rows the disk does not have")
	}
}

// TestRepairSinkTail pins the tail-repair contract.
func TestRepairSinkTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
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

	write("a\nb\ntorn-partial")
	rows, err := RepairSinkTail(path)
	if err != nil || rows != 2 {
		t.Fatalf("repair = (%d, %v), want (2, nil)", rows, err)
	}
	if got := read(); got != "a\nb\n" {
		t.Errorf("repaired file = %q", got)
	}

	write("only-a-torn-fragment")
	rows, err = RepairSinkTail(path)
	if err != nil || rows != 0 {
		t.Fatalf("fragment repair = (%d, %v), want (0, nil)", rows, err)
	}
	if got := read(); got != "" {
		t.Errorf("fragment-only file not emptied: %q", got)
	}

	rows, err = RepairSinkTail(filepath.Join(dir, "missing"))
	if err != nil || rows != 0 {
		t.Errorf("missing file repair = (%d, %v), want (0, nil)", rows, err)
	}
}

// TestCloneExportDetachesSlices: the pending log's deep copies must
// survive the engine overwriting its reused export buffer.
func TestCloneExportDetachesSlices(t *testing.T) {
	backing := []string{"resolver-a", "resolver-b"}
	e := ProbeExport{ProbeID: 1, InterceptedV4: backing[:2]}
	c := cloneExport(e)
	backing[0] = "overwritten"
	if c.InterceptedV4[0] != "resolver-a" {
		t.Error("cloneExport shares the caller's backing array")
	}
	if cloneExport(ProbeExport{}).InterceptedV4 != nil {
		t.Error("cloneExport materialized an empty slice (breaks omitempty identity)")
	}
}
