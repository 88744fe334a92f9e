// Package faultfs is the storage fault-injection plane under the study
// pipeline's checkpoint and sink I/O. FS is the narrow write-side
// filesystem surface those layers need; OS passes straight through to
// the real filesystem, and Fault wraps any FS with a deterministic
// schedule of injected failures — torn writes, EIO, ENOSPC, failed and
// slow fsyncs — so every crash-recovery path has a reproducible trigger
// in CI instead of waiting for real hardware to misbehave.
//
// Determinism contract: whether an operation faults depends only on the
// schedule seed, the file's path (relative to the schedule's Root),
// the fault class, and how many
// fault-eligible operations that path has seen — never on goroutine
// interleaving or wall-clock time. Shards touch disjoint files, so a
// 4-shard run under a Fault FS injects the same faults at the same
// byte offsets on every execution with the same seed, which is what
// lets the crash-torture harness demand byte-identical output.
//
// Post-crash bit rot is modeled separately: FlipBit, TruncateTail, and
// AppendGarbage corrupt files in place between runs, driven by the
// harness's own seeded RNG rather than the per-operation schedule.
package faultfs

import (
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// File is the write-side file handle the study pipeline uses: append
// bytes, force them to stable storage, release. *os.File satisfies it.
type File interface {
	io.Writer
	// Sync flushes the file's written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem surface under checkpoint and sink writes. Every
// operation that can lose or corrupt data on a real disk goes through
// it, so a fault implementation can reach them all.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making renames and creates within it
	// durable. (os.Rename alone only promises atomicity, not that the
	// new directory entry survives a power loss.)
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir implements FS: open the directory and fsync it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Class names one injectable fault kind. The string values appear in
// schedules, counters, and test assertions.
type Class string

const (
	// TornWrite writes only a schedule-chosen prefix of the buffer, then
	// fails with EIO — the on-disk state a power loss mid-write leaves.
	TornWrite Class = "torn_write"
	// WriteEIO fails a write with EIO before any byte lands (a transient
	// medium error; retrying may succeed).
	WriteEIO Class = "write_eio"
	// WriteENOSPC fails a write with ENOSPC before any byte lands (the
	// disk is full; retrying will not help).
	WriteENOSPC Class = "write_enospc"
	// SyncFail fails an fsync with EIO. The caller must assume none of
	// the file's recent writes are durable.
	SyncFail Class = "sync_fail"
	// SyncSlow delays an fsync by a schedule-chosen sub-millisecond-to-
	// few-millisecond pause, then succeeds — a congested device.
	SyncSlow Class = "sync_slow"
	// RenameFail fails a rename with EIO, leaving the old path intact.
	RenameFail Class = "rename_fail"
)

// classes is the deterministic evaluation order for each operation kind.
var writeClasses = []Class{TornWrite, WriteEIO, WriteENOSPC}

// Schedule is a deterministic fault plan: for each class, the fraction
// of eligible operations that fault. An operation's verdict is a pure
// function of (Seed, path, class, per-path operation index): class
// fires when fnv64a(seed‖path‖class‖opIndex) / 2^64 < rate. Rates of 0
// (or absent classes) never fire; 1 always fires.
type Schedule struct {
	Seed  int64
	Rates map[Class]float64
	// Root, when set, is the directory paths are hashed relative to, so
	// the verdicts do not depend on where that directory lives.
	Root string
}

// Fault wraps an inner FS (nil means OS) and injects faults per a
// Schedule. Safe for concurrent use; the per-path operation counters
// are the only shared state.
type Fault struct {
	inner FS
	sched Schedule

	mu     sync.Mutex
	ops    map[string]uint64 // per-path fault-eligible op index
	counts map[Class]int64   // faults actually injected
}

// New returns a Fault FS over the real filesystem.
func New(sched Schedule) *Fault { return Wrap(OS{}, sched) }

// Wrap returns a Fault FS over inner (nil means OS).
func Wrap(inner FS, sched Schedule) *Fault {
	if inner == nil {
		inner = OS{}
	}
	return &Fault{
		inner:  inner,
		sched:  sched,
		ops:    make(map[string]uint64),
		counts: make(map[Class]int64),
	}
}

// Counts returns how many faults each class has injected so far.
func (f *Fault) Counts() map[Class]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Class]int64, len(f.counts))
	for c, n := range f.counts {
		out[c] = n
	}
	return out
}

// nextOp advances and returns path's fault-eligible operation index.
func (f *Fault) nextOp(path string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.ops[path]
	f.ops[path] = n + 1
	return n
}

// note records an injected fault.
func (f *Fault) note(c Class) {
	f.mu.Lock()
	f.counts[c]++
	f.mu.Unlock()
}

// roll is the deterministic fault die: a pure hash of (seed, path,
// class, op) mapped to [0, 1).
func roll(seed int64, path string, c Class, op uint64) float64 {
	h := fnv.New64a()
	var b [8]byte
	putUint64(b[:], uint64(seed))
	h.Write(b[:])         //nolint:errcheck // fnv never errors
	h.Write([]byte(path)) //nolint:errcheck
	h.Write([]byte(c))    //nolint:errcheck
	putUint64(b[:], op)
	h.Write(b[:]) //nolint:errcheck
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// fires reports whether class c faults on path's op-index op, and
// returns the residual hash fraction for secondary choices (torn-write
// prefix length, slow-sync delay).
func (f *Fault) fires(path string, c Class, op uint64) (bool, float64) {
	rate := f.sched.Rates[c]
	if rate <= 0 {
		return false, 0
	}
	if rel, err := filepath.Rel(f.sched.Root, path); f.sched.Root != "" && err == nil {
		path = rel
	}
	r := roll(f.sched.Seed, path, c, op)
	if r >= rate {
		return false, 0
	}
	f.note(c)
	return true, r / rate
}

// pathErr wraps a syscall errno the way the os package would, so
// errors.Is(err, syscall.ENOSPC) works on injected faults.
func pathErr(op, path string, errno syscall.Errno) error {
	return &fs.PathError{Op: op, Path: path, Err: errno}
}

// OpenFile implements FS, wrapping the handle so writes and syncs
// consult the schedule.
func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// Rename implements FS.
func (f *Fault) Rename(oldpath, newpath string) error {
	if ok, _ := f.fires(newpath, RenameFail, f.nextOp(newpath)); ok {
		return pathErr("rename", newpath, syscall.EIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS (never faulted: removal is recovery machinery).
func (f *Fault) Remove(name string) error { return f.inner.Remove(name) }

// MkdirAll implements FS (never faulted).
func (f *Fault) MkdirAll(dir string, perm fs.FileMode) error { return f.inner.MkdirAll(dir, perm) }

// SyncDir implements FS; SyncFail applies to directories too.
func (f *Fault) SyncDir(dir string) error {
	op := f.nextOp(dir)
	if ok, _ := f.fires(dir, SyncFail, op); ok {
		return pathErr("sync", dir, syscall.EIO)
	}
	if ok, frac := f.fires(dir, SyncSlow, op); ok {
		time.Sleep(slowSyncDelay(frac))
	}
	return f.inner.SyncDir(dir)
}

// faultFile consults the schedule on every write and sync.
type faultFile struct {
	fs    *Fault
	name  string
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	op := ff.fs.nextOp(ff.name)
	for _, c := range writeClasses {
		ok, frac := ff.fs.fires(ff.name, c, op)
		if !ok {
			continue
		}
		switch c {
		case TornWrite:
			// Land a strict prefix, then fail — the write tore.
			keep := int(frac * float64(len(p)))
			if keep >= len(p) {
				keep = len(p) - 1
			}
			if keep < 0 {
				keep = 0
			}
			n, werr := ff.inner.Write(p[:keep])
			if werr != nil {
				return n, werr
			}
			return n, pathErr("write", ff.name, syscall.EIO)
		case WriteEIO:
			return 0, pathErr("write", ff.name, syscall.EIO)
		case WriteENOSPC:
			return 0, pathErr("write", ff.name, syscall.ENOSPC)
		}
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	op := ff.fs.nextOp(ff.name)
	if ok, _ := ff.fs.fires(ff.name, SyncFail, op); ok {
		return pathErr("sync", ff.name, syscall.EIO)
	}
	if ok, frac := ff.fs.fires(ff.name, SyncSlow, op); ok {
		time.Sleep(slowSyncDelay(frac))
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

// slowSyncDelay maps a hash fraction to a 200µs–2.2ms pause — long
// enough to shuffle goroutine interleavings, short enough for CI.
func slowSyncDelay(frac float64) time.Duration {
	return 200*time.Microsecond + time.Duration(frac*float64(2*time.Millisecond))
}

// --- Post-crash corruption helpers (bit rot, torn tails) --------------
//
// These mutate files in place between pipeline runs; the crash-torture
// harness drives them from its own seeded RNG. They use the real
// filesystem directly — corruption is the *input* to recovery, not an
// operation under test.

// FlipBit flips one bit of path, chosen by bit modulo the file's bit
// length. Flipping a bit in a checksummed checkpoint or a sink row is
// the classic silent-bit-rot failure. Empty and missing files are
// no-ops (nothing to rot).
func FlipBit(path string, bit uint64) error {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(blob) == 0) {
		return nil
	}
	if err != nil {
		return err
	}
	i := bit % uint64(len(blob)*8)
	blob[i/8] ^= 1 << (i % 8)
	return os.WriteFile(path, blob, 0o644)
}

// TruncateTail removes the last n bytes of path (clamped to the file's
// size) — the torn tail a crash mid-append leaves. Missing files are
// no-ops.
func TruncateTail(path string, n int) error {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	keep := st.Size() - int64(n)
	if keep < 0 {
		keep = 0
	}
	return os.Truncate(path, keep)
}

// AppendGarbage appends raw bytes to path — a partial record flushed
// just before a crash. Missing files are created.
func AppendGarbage(path string, garbage []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(garbage)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
