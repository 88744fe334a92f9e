package study

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/dnswatch/dnsloc/internal/faultfs"
)

// ckAcc is a minimal Accumulator for checkpoint-layer tests.
type ckAcc struct {
	State string `json:"state"`
}

func (a *ckAcc) Fold(*ProbeRecord)             {}
func (a *ckAcc) Merge(Accumulator) error       { return nil }
func (a *ckAcc) MarshalState() ([]byte, error) { return json.Marshal(a) }
func (a *ckAcc) LoadState(data []byte) error   { return json.Unmarshal(data, a) }

func testStore(t *testing.T, fsys faultfs.FS, dir string) *ckStore {
	t.Helper()
	return newCkStore(fsys, dir, 0, 2, "test-fingerprint")
}

// TestCheckpointStoreRoundTrip: successive stores alternate the A/B
// slots with increasing generations, and load returns the newest.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	if err := st.store(10, &ckAcc{State: "ten"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.store(20, &ckAcc{State: "twenty"}, nil); err != nil {
		t.Fatal(err)
	}
	slots := CheckpointSlotPaths(dir, 0, 2)
	for _, slot := range slots {
		if _, err := os.Stat(slot); err != nil {
			t.Errorf("two stores did not fill both slots: %s missing", slot)
		}
	}
	ld := testStore(t, nil, dir)
	ck, class, detail := ld.load()
	if class != ckClean || detail != "" {
		t.Fatalf("load class %v (%q), want clean", class, detail)
	}
	if ck.Cursor != 20 || ck.Generation != 2 {
		t.Errorf("loaded cursor=%d gen=%d, want 20/2", ck.Cursor, ck.Generation)
	}
	var acc ckAcc
	if err := acc.LoadState(ck.Acc); err != nil || acc.State != "twenty" {
		t.Errorf("loaded state %q (%v), want twenty", acc.State, err)
	}
	// No temp files survive a clean store.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// TestCheckpointFallbackToOlderGeneration: rotting the newest slot must
// fall back to the older generation, classified and never fatal.
func TestCheckpointFallbackToOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	for i, cursor := range []int{10, 20} {
		if err := st.store(cursor, &ckAcc{State: "s"}, nil); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	// Generation 2 landed in slot B (second store); rot it.
	slots := CheckpointSlotPaths(dir, 0, 2)
	if err := faultfs.FlipBit(slots[1], 123); err != nil {
		t.Fatal(err)
	}
	ck, class, detail := testStore(t, nil, dir).load()
	if class != ckFallback {
		t.Fatalf("load class %v (%q), want fallback", class, detail)
	}
	if ck == nil || ck.Cursor != 10 || ck.Generation != 1 {
		t.Fatalf("fallback loaded %+v, want cursor 10 gen 1", ck)
	}
	if detail == "" {
		t.Error("fallback produced no detail for the warning log")
	}
}

// TestCheckpointAllGenerationsCorrupt: when every slot is rotten the
// shard restarts from zero — classified, not fatal.
func TestCheckpointAllGenerationsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	if err := st.store(10, &ckAcc{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.store(20, &ckAcc{}, nil); err != nil {
		t.Fatal(err)
	}
	for _, slot := range CheckpointSlotPaths(dir, 0, 2) {
		if err := faultfs.FlipBit(slot, 99); err != nil {
			t.Fatal(err)
		}
	}
	ck, class, detail := testStore(t, nil, dir).load()
	if ck != nil || class != ckAllCorrupt {
		t.Fatalf("load = (%+v, %v), want (nil, all-corrupt)", ck, class)
	}
	if detail == "" {
		t.Error("all-corrupt produced no detail")
	}
}

// TestCheckpointForeignFingerprint: intact checkpoints from a different
// run shape are refused but recoverable.
func TestCheckpointForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	if err := st.store(10, &ckAcc{}, nil); err != nil {
		t.Fatal(err)
	}
	other := newCkStore(nil, dir, 0, 2, "different-fingerprint")
	ck, class, detail := other.load()
	if ck != nil || class != ckForeign {
		t.Fatalf("load = (%+v, %v), want (nil, foreign)", ck, class)
	}
	if detail == "" {
		t.Error("foreign checkpoint produced no detail")
	}
}

// TestCheckpointStoreFailureKeepsPrevious: a store that faults at any
// step of the write protocol leaves the previous generation loadable,
// and a retry against a clean disk succeeds into the same slot.
func TestCheckpointStoreFailureKeepsPrevious(t *testing.T) {
	for _, rates := range []map[faultfs.Class]float64{
		{faultfs.TornWrite: 1},
		{faultfs.SyncFail: 1},
		{faultfs.RenameFail: 1},
	} {
		dir := t.TempDir()
		clean := testStore(t, nil, dir)
		if err := clean.store(10, &ckAcc{State: "good"}, nil); err != nil {
			t.Fatal(err)
		}
		faulty := testStore(t, faultfs.New(faultfs.Schedule{Seed: 1, Rates: rates}), dir)
		faulty.gen, faulty.next = clean.gen, clean.next
		if err := faulty.store(20, &ckAcc{State: "doomed"}, nil); err == nil {
			t.Fatalf("rates %v: store did not fail", rates)
		}
		ck, class, detail := testStore(t, nil, dir).load()
		if class == ckAllCorrupt || ck == nil || ck.Cursor != 10 {
			t.Fatalf("rates %v: previous generation lost (%+v, %v, %q)", rates, ck, class, detail)
		}
	}
}

// TestCheckpointTornEnvelopeDetected: a physically torn slot write is
// caught by the envelope, not parsed as a shorter JSON document.
func TestCheckpointTornEnvelopeDetected(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	if err := st.store(10, &ckAcc{State: "whole"}, nil); err != nil {
		t.Fatal(err)
	}
	slots := CheckpointSlotPaths(dir, 0, 2)
	if err := faultfs.TruncateTail(slots[0], 5); err != nil {
		t.Fatal(err)
	}
	ck, class, _ := testStore(t, nil, dir).load()
	if ck != nil || class != ckAllCorrupt {
		t.Fatalf("torn envelope load = (%+v, %v), want (nil, all-corrupt)", ck, class)
	}
}

// TestCheckpointSweepTemps: stale temp files from a crashed writer are
// cleaned on load and never mistaken for checkpoints.
func TestCheckpointSweepTemps(t *testing.T) {
	dir := t.TempDir()
	slots := CheckpointSlotPaths(dir, 0, 2)
	stale := slots[0] + ".12345-1.tmp"
	if err := os.WriteFile(stale, []byte("half a checkpoi"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, class, _ := testStore(t, nil, dir).load()
	if ck != nil || class != ckFresh {
		t.Fatalf("load with only a stale temp = (%+v, %v), want fresh", ck, class)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the sweep")
	}
}

// TestCheckpointClear: a non-resume run's clear removes every slot so
// stale cursors cannot resurface.
func TestCheckpointClear(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, nil, dir)
	if err := st.store(10, &ckAcc{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.store(20, &ckAcc{}, nil); err != nil {
		t.Fatal(err)
	}
	st.clear()
	ck, class, _ := testStore(t, nil, dir).load()
	if ck != nil || class != ckFresh {
		t.Fatalf("load after clear = (%+v, %v), want fresh", ck, class)
	}
}

// TestCheckpointWriteDurability: the store protocol fsyncs the temp
// file and the directory — a schedule failing only fsync must fail the
// store rather than report false durability.
func TestCheckpointWriteDurability(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, faultfs.New(faultfs.Schedule{Seed: 3, Rates: map[faultfs.Class]float64{faultfs.SyncFail: 1}}), dir)
	err := st.store(10, &ckAcc{}, nil)
	if err == nil {
		t.Fatal("store succeeded without a durable fsync")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("fsync failure surfaced as %v, want EIO", err)
	}
}

// FuzzReadCheckpoint drives the slot decoder — envelope, CRC-32C,
// payload JSON, version and fingerprint — with arbitrary bytes. It must
// never panic, and it may only accept a slot whose CRC matches its
// payload and whose fingerprint is this run's. The seeds are a valid
// slot plus the post-crash corruptions the torture harness applies.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	st := newCkStore(nil, dir, 0, 2, "test-fingerprint")
	if err := st.store(10, &ckAcc{State: "seed"}, nil); err != nil {
		f.Fatal(err)
	}
	slot := CheckpointSlotPaths(dir, 0, 2)[0]
	valid, err := os.ReadFile(slot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for i, corrupt := range []func(path string) error{
		func(p string) error { return faultfs.FlipBit(p, 3) },
		func(p string) error { return faultfs.FlipBit(p, uint64(len(valid))*4) },
		func(p string) error { return faultfs.TruncateTail(p, 1) },
		func(p string) error { return faultfs.TruncateTail(p, len(valid)/2) },
		func(p string) error { return faultfs.AppendGarbage(p, []byte("\x00garbage}")) },
	} {
		p := filepath.Join(dir, fmt.Sprintf("variant-%d.json", i))
		if err := os.WriteFile(p, valid, 0o644); err != nil {
			f.Fatal(err)
		}
		if err := corrupt(p); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		ck, status, _ := decodeCheckpoint(blob, "test-fingerprint")
		if (status == ckFileOK) != (ck != nil) {
			t.Fatalf("status %v with checkpoint %v", status, ck)
		}
		if status != ckFileOK {
			return
		}
		var env checkpointEnvelope
		if err := json.Unmarshal(blob, &env); err != nil {
			t.Fatalf("accepted a slot whose envelope does not parse: %v", err)
		}
		if got := crc32.Checksum(env.Payload, ckCRCTable); got != env.CRC {
			t.Fatalf("accepted a slot with crc %08x over a payload summing to %08x", env.CRC, got)
		}
		if ck.Fingerprint != "test-fingerprint" || ck.Version != checkpointVersion {
			t.Fatalf("accepted a foreign slot: version %d fingerprint %q", ck.Version, ck.Fingerprint)
		}
	})
}
