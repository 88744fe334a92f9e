package study

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/metrics"
)

// Checkpoint durability model
//
// A shard checkpoint must survive the real world: a kill mid-write, a
// power loss before the page cache drains, a cosmic-ray bit flip six
// months into a longitudinal run. The scheme:
//
//   - Each shard owns two generation slots, a.json and b.json in its
//     own directory shard-K-of-N, written alternately. Every write
//     carries a strictly increasing generation number, so the reader
//     can order the slots without trusting mtimes.
//   - The on-disk frame is a CRC envelope: {"crc": c, "payload": p}
//     with c = CRC-32C(p). A torn write or a flipped bit fails the
//     checksum and the reader falls back to the other slot's older
//     generation — losing at most one checkpoint interval of progress,
//     never the run.
//   - Writes go tmp → fsync(file) → rename → fsync(dir), through a
//     faultfs.FS so tests can tear any step. The temp file is named by
//     its slot and generation and opened O_EXCL; one a crashed run left
//     under the same name is stale by construction and reclaimed. The
//     names depend only on the run, so a seeded fault schedule, which
//     hashes paths, injects the same faults in every process.
//   - No read outcome is fatal: corrupt slots fall back, and when every
//     slot is corrupt — or was written by a different run shape — the
//     shard restarts from cursor 0 with a logged warning and a
//     study.checkpoint_recoveries count. Determinism makes restarting
//     safe: re-measuring from 0 lands on byte-identical output.

// checkpointVersion guards the on-disk checkpoint payload layout.
const checkpointVersion = 1

// shardCheckpoint is one shard's persisted progress: everything needed
// to resume measurement at Cursor and still finish with byte-identical
// tables, CSV, and Stable metric snapshot.
type shardCheckpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Generation orders the A/B slots: each store increments it, so the
	// reader picks the newest intact slot and falls back to the older
	// one when the newest is torn or rotted.
	Generation int64 `json:"generation,omitempty"`
	// Cursor counts the shard's folded records; on resume the first
	// Cursor records are skipped.
	Cursor int `json:"cursor"`
	// Acc is the accumulator's MarshalState output at Cursor.
	Acc json.RawMessage `json:"accumulator"`
	// Metrics is the shard registry's full snapshot at Cursor; restored
	// additively before the resumed sweep, so restored + re-counted
	// events equal an uninterrupted run's totals.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// checkpointEnvelope frames a checkpoint on disk: the payload plus its
// CRC-32C, so torn writes and bit rot are detected on read instead of
// silently seeding a shard with garbage state.
type checkpointEnvelope struct {
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// ckCRCTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and a different codepoint from IEEE so an envelope is
// never confused with other CRC uses.
var ckCRCTable = crc32.MakeTable(crc32.Castagnoli)

// checkpointFingerprint ties a checkpoint to the exact run shape that
// wrote it. The RNG "position" needs no field of its own: every stream
// (world build, seat dealing, availability pre-draw) is replayed from
// the seed on resume, and per-flow fault decisions hash packet content,
// so the cursor is the only position that exists.
func checkpointFingerprint(spec Spec, k, workers int) string {
	return fmt.Sprintf("v%d seed=%d probes=%d seats=%d shard=%d/%d fault=%t retry=%t",
		checkpointVersion, spec.Seed, spec.TotalProbes, spec.TotalSeats(), k, workers,
		spec.Fault != nil && spec.Fault.Active(), spec.Retry != nil)
}

// CheckpointSlotPaths returns shard k's two alternating generation
// slots, in the shard's own directory under dir. Exported so harnesses
// (and curious operators) can find the files a run leaves behind.
func CheckpointSlotPaths(dir string, k, workers int) [2]string {
	base := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d", k, workers))
	return [2]string{filepath.Join(base, "a.json"), filepath.Join(base, "b.json")}
}

// ckRecovery classifies what loading a shard's checkpoints required.
type ckRecovery int

const (
	// ckFresh: no checkpoint present — a fresh start, not a recovery.
	ckFresh ckRecovery = iota
	// ckClean: the newest generation loaded intact.
	ckClean
	// ckFallback: at least one slot was torn or corrupt, but an older
	// intact generation carried the shard.
	ckFallback
	// ckAllCorrupt: every present slot failed its checksum or parse;
	// the shard restarts from cursor 0.
	ckAllCorrupt
	// ckForeign: the slots parse but belong to a different run shape
	// (version or fingerprint mismatch); the shard restarts from 0.
	ckForeign
)

func (r ckRecovery) String() string {
	switch r {
	case ckFresh:
		return "fresh"
	case ckClean:
		return "clean"
	case ckFallback:
		return "fallback-to-older-generation"
	case ckAllCorrupt:
		return "all-generations-corrupt"
	case ckForeign:
		return "foreign-checkpoint"
	default:
		return "unknown"
	}
}

// recovered reports whether the class counts as a recovery event
// (something was wrong and the pipeline healed around it).
func (r ckRecovery) recovered() bool {
	return r == ckFallback || r == ckAllCorrupt || r == ckForeign
}

// ckFileStatus is one slot file's read outcome.
type ckFileStatus int

const (
	ckFileMissing ckFileStatus = iota
	ckFileOK
	ckFileCorrupt // unreadable, torn envelope, CRC mismatch, bad JSON
	ckFileForeign // intact but wrong version or fingerprint
)

// readCheckpointFile reads and validates one slot.
func readCheckpointFile(path, fingerprint string) (*shardCheckpoint, ckFileStatus, string) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, ckFileMissing, ""
	}
	if err != nil {
		return nil, ckFileCorrupt, fmt.Sprintf("%s: %v", filepath.Base(path), err)
	}
	ck, status, detail := decodeCheckpoint(blob, fingerprint)
	if detail != "" {
		detail = filepath.Base(path) + ": " + detail
	}
	return ck, status, detail
}

// decodeCheckpoint validates one slot's bytes: envelope, CRC-32C,
// payload JSON, then version and fingerprint. It never panics on
// arbitrary input; only ckFileOK returns a checkpoint.
func decodeCheckpoint(blob []byte, fingerprint string) (*shardCheckpoint, ckFileStatus, string) {
	var env checkpointEnvelope
	if err := json.Unmarshal(blob, &env); err != nil || len(env.Payload) == 0 {
		return nil, ckFileCorrupt, "torn or invalid envelope"
	}
	if got := crc32.Checksum(env.Payload, ckCRCTable); got != env.CRC {
		return nil, ckFileCorrupt, fmt.Sprintf("crc mismatch (got %08x, want %08x)", got, env.CRC)
	}
	var ck shardCheckpoint
	if err := json.Unmarshal(env.Payload, &ck); err != nil {
		return nil, ckFileCorrupt, err.Error()
	}
	if ck.Version != checkpointVersion {
		return nil, ckFileForeign, fmt.Sprintf("version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Fingerprint != fingerprint {
		return nil, ckFileForeign, fmt.Sprintf("written by a different run (%q, want %q)", ck.Fingerprint, fingerprint)
	}
	return &ck, ckFileOK, ""
}

// ckStore is one shard's checkpoint writer/reader: it owns the slot
// rotation state and the fsync/rename protocol.
type ckStore struct {
	fs          faultfs.FS
	dir         string
	slots       [2]string
	fingerprint string

	gen  int64 // newest generation loaded or stored
	next int   // slot index the next store targets
}

// newCkStore opens shard k's store under dir, making the shard's
// directory; a failure to make it surfaces at the first store.
func newCkStore(fsys faultfs.FS, dir string, k, workers int, fingerprint string) *ckStore {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	slots := CheckpointSlotPaths(dir, k, workers)
	shardDir := filepath.Dir(slots[0])
	fsys.MkdirAll(shardDir, 0o755) //nolint:errcheck
	return &ckStore{fs: fsys, dir: shardDir, slots: slots, fingerprint: fingerprint}
}

// load reads both generation slots and returns the newest intact
// checkpoint (nil when the shard must start at cursor 0), the recovery
// classification, and a human-readable detail string for the warning
// log. It never fails: every corruption mode degrades to
// an older generation or a from-scratch restart. It also sweeps stale
// temp files a previous crash left behind.
func (s *ckStore) load() (*shardCheckpoint, ckRecovery, string) {
	s.sweepTemps()
	var best *shardCheckpoint
	bestSlot := -1
	corrupt, foreign := 0, 0
	var details []string
	for i, path := range s.slots {
		ck, status, detail := readCheckpointFile(path, s.fingerprint)
		switch status {
		case ckFileMissing:
		case ckFileCorrupt:
			corrupt++
			details = append(details, detail)
		case ckFileForeign:
			foreign++
			details = append(details, detail)
		case ckFileOK:
			if best == nil || ck.Generation > best.Generation {
				best = ck
				bestSlot = i
			}
		}
	}
	detail := ""
	if len(details) > 0 {
		detail = details[0]
		for _, d := range details[1:] {
			detail += "; " + d
		}
	}
	if best != nil {
		s.gen = best.Generation
		s.next = 1 - bestSlot
		if corrupt > 0 || foreign > 0 {
			return best, ckFallback, detail
		}
		return best, ckClean, ""
	}
	if corrupt > 0 {
		return nil, ckAllCorrupt, detail
	}
	if foreign > 0 {
		return nil, ckForeign, detail
	}
	return nil, ckFresh, ""
}

// clear removes every checkpoint file — a non-resume run invalidates
// whatever a previous run left in the directory, so a later crash
// restart can never resurrect a stale cursor. Best-effort.
func (s *ckStore) clear() {
	for _, p := range s.slots {
		s.fs.Remove(p) //nolint:errcheck // absent files are fine
	}
	s.sweepTemps()
	s.gen, s.next = 0, 0
}

// sweepTemps removes temp files abandoned by crashed writers.
func (s *ckStore) sweepTemps() {
	for _, slot := range s.slots {
		matches, err := filepath.Glob(slot + ".*.tmp")
		if err != nil {
			continue
		}
		for _, m := range matches {
			s.fs.Remove(m) //nolint:errcheck
		}
	}
}

// store persists the next checkpoint generation into the alternating
// slot: marshal → CRC envelope → unique O_EXCL temp → write → fsync
// file → rename → fsync dir. The rotation state only advances on full
// success, so a failed store retries the same slot and the other slot's
// older generation stays intact either way.
func (s *ckStore) store(cursor int, acc Accumulator, reg *metrics.Registry) error {
	state, err := acc.MarshalState()
	if err != nil {
		return err
	}
	ck := shardCheckpoint{
		Version:     checkpointVersion,
		Fingerprint: s.fingerprint,
		Generation:  s.gen + 1,
		Cursor:      cursor,
		Acc:         state,
	}
	if reg != nil {
		ck.Metrics = reg.Snapshot(true)
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(checkpointEnvelope{
		CRC:     crc32.Checksum(payload, ckCRCTable),
		Payload: payload,
	})
	if err != nil {
		return err
	}

	target := s.slots[s.next]
	tmp := fmt.Sprintf("%s.%d.tmp", target, s.gen+1)
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		// A crashed run, or a failed store of this generation, left this
		// exact name; it is stale by construction, so reclaim it.
		s.fs.Remove(tmp) //nolint:errcheck
		f, err = s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return fmt.Errorf("checkpoint temp %s: %w", tmp, err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()        //nolint:errcheck
		s.fs.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("checkpoint write %s: %w", tmp, err)
	}
	// fsync before rename: otherwise the rename can become durable
	// before the data, and a power loss surfaces an empty or partial
	// file at the final path — the exact bug this layer exists to kill.
	if err := f.Sync(); err != nil {
		f.Close()        //nolint:errcheck
		s.fs.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("checkpoint fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("checkpoint close %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, target); err != nil {
		s.fs.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("checkpoint rename %s: %w", target, err)
	}
	// fsync the directory so the rename itself survives a power loss.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("checkpoint dirsync %s: %w", s.dir, err)
	}
	s.gen++
	s.next = 1 - s.next
	return nil
}
