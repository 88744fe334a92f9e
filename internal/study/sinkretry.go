package study

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
)

// RetrySink wraps a file-backed RecordSink with bounded-backoff
// self-healing. The failure model is a flaky or full disk under the
// sink file:
//
//   - Transient write errors (EIO, torn writes) are healed in place:
//     close the poisoned sink (a bufio-backed sink holds a sticky error
//     and can never be written again), repair the file's torn tail,
//     count the complete rows on disk, reopen in append mode, and
//     replay exactly the rows the disk is missing from an in-memory
//     pending log. Each heal attempt is counted in SinkStats.Retries
//     (surfaced as study.sink_retries).
//   - ENOSPC is permanent — retrying a full disk cannot help — so the
//     sink degrades: it is dropped, every later Append succeeds as a
//     no-op, and SinkStats.Degraded is set (study.sinks_degraded). The
//     shard keeps folding its accumulator, so the run still finishes
//     with correct tables; only this shard's export file is incomplete.
//   - A heal that cannot restore the durable prefix (the file holds
//     fewer rows than were flushed) propagates the error, escalating to
//     the shard supervisor.
//
// The pending log holds deep copies of every export since the last
// successful flush — ProbeExport's slice fields alias the engine's
// reused encode buffer, so shallow copies would be overwritten by the
// next record. The log is bounded: Append self-flushes every
// retrySinkAutoFlush rows even when the engine (running without
// checkpoints) never calls Flush.
type RetrySink struct {
	path   string
	open   func() (RecordSink, error)
	policy SinkRetryPolicy

	inner   RecordSink
	durable int           // rows known flushed to the file
	pending []ProbeExport // rows appended since the last successful flush
	stats   SinkStats
}

// SinkRetryPolicy bounds a RetrySink's heal loop.
type SinkRetryPolicy struct {
	// MaxRetries is the heal attempts per failure; <= 0 means 3.
	MaxRetries int
	// Backoff is the pause before the first heal attempt, doubling per
	// attempt; <= 0 means 1ms.
	Backoff time.Duration
}

// SinkStats is a sink's self-healing activity.
type SinkStats struct {
	// Retries counts heal attempts (close → repair → reopen → replay).
	Retries int64
	// Degraded reports the sink was permanently dropped (ENOSPC).
	Degraded bool
}

// SinkStatser is implemented by self-healing sinks. The streaming
// engine harvests it after Close into the study.sink_retries and
// study.sinks_degraded counters.
type SinkStatser interface {
	SinkStats() SinkStats
}

// retrySinkAutoFlush caps the pending replay log: Append flushes after
// this many unflushed rows so a checkpoint-less run stays bounded.
const retrySinkAutoFlush = 1024

// NewRetrySink builds a self-healing sink over the file at path.
// durable is the complete rows the file already holds — the checkpoint
// cursor a resumed shard passes as resumedAt, after the caller
// truncated the file to it. open (re)opens the file in append mode and
// wraps it in a RecordSink; it is called once here and again on every
// heal.
func NewRetrySink(path string, durable int, policy SinkRetryPolicy, open func() (RecordSink, error)) (*RetrySink, error) {
	s := &RetrySink{path: path, durable: durable, policy: policy, open: open}
	inner, err := open()
	if err != nil {
		return nil, err
	}
	s.inner = inner
	return s, nil
}

// SinkStats implements SinkStatser.
func (s *RetrySink) SinkStats() SinkStats { return s.stats }

// Append implements RecordSink. It never returns a transient error:
// failures are healed (replaying from the pending log) or degrade the
// sink; only an unhealable file escapes to the caller.
func (s *RetrySink) Append(e ProbeExport) error {
	if s.stats.Degraded {
		return nil
	}
	s.pending = append(s.pending, cloneExport(e))
	if err := s.inner.Append(e); err != nil {
		return s.heal(err)
	}
	if len(s.pending) >= retrySinkAutoFlush {
		return s.Flush()
	}
	return nil
}

// Flush implements SinkFlusher: on success the pending rows are durable
// and the replay log resets. The streaming engine calls this before
// every checkpoint, which is what keeps the checkpoint cursor at or
// behind the file's complete rows.
func (s *RetrySink) Flush() error {
	if s.stats.Degraded {
		return nil
	}
	if f, ok := s.inner.(SinkFlusher); ok {
		if err := f.Flush(); err != nil {
			// heal replays the pending log and flushes it itself.
			return s.heal(err)
		}
	}
	s.durable += len(s.pending)
	s.pending = s.pending[:0]
	return nil
}

// Close flushes (healing if needed) and releases the inner sink.
func (s *RetrySink) Close() error {
	if s.stats.Degraded {
		return nil
	}
	if err := s.Flush(); err != nil {
		if s.inner != nil {
			s.inner.Close() //nolint:errcheck // already failing
			s.inner = nil
		}
		return err
	}
	if s.inner == nil {
		return nil
	}
	err := s.inner.Close()
	s.inner = nil
	return err
}

// heal recovers from a sink I/O failure. ENOSPC degrades immediately;
// anything else retries up to policy.MaxRetries with doubling backoff:
// repair the file tail, reopen, replay the rows the disk is missing,
// flush. Returns nil once healed (pending rows are then durable) or the
// last error when the file cannot be made whole.
func (s *RetrySink) heal(cause error) error {
	if errors.Is(cause, syscall.ENOSPC) {
		s.degrade()
		return nil
	}
	if s.inner != nil {
		s.inner.Close() //nolint:errcheck // poisoned; close is best-effort
		s.inner = nil
	}
	maxRetries := s.policy.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 3
	}
	backoff := s.policy.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		s.stats.Retries++
		time.Sleep(backoff)
		backoff *= 2
		rows, err := RepairSinkTail(s.path)
		if err != nil {
			cause = err
			continue
		}
		if rows < s.durable {
			return fmt.Errorf("study: sink %s holds %d rows but %d were durable — cannot heal: %w",
				s.path, rows, s.durable, cause)
		}
		surplus := rows - s.durable
		if surplus > len(s.pending) {
			return fmt.Errorf("study: sink %s holds %d rows beyond the %d this run wrote — foreign writer: %w",
				s.path, surplus, len(s.pending), cause)
		}
		inner, err := s.open()
		if err != nil {
			cause = err
			continue
		}
		if err := replayPending(inner, s.pending[surplus:]); err != nil {
			inner.Close() //nolint:errcheck
			if errors.Is(err, syscall.ENOSPC) {
				s.degrade()
				return nil
			}
			cause = err
			continue
		}
		s.inner = inner
		s.durable += len(s.pending)
		s.pending = s.pending[:0]
		return nil
	}
	return cause
}

// replayPending appends rows and flushes them.
func replayPending(sink RecordSink, rows []ProbeExport) error {
	for i := range rows {
		if err := sink.Append(rows[i]); err != nil {
			return err
		}
	}
	if f, ok := sink.(SinkFlusher); ok {
		return f.Flush()
	}
	return nil
}

// degrade drops the sink permanently, leaving the file's tail repaired
// when possible.
func (s *RetrySink) degrade() {
	if s.inner != nil {
		s.inner.Close() //nolint:errcheck
		s.inner = nil
	}
	RepairSinkTail(s.path) //nolint:errcheck // best-effort cleanup
	s.stats.Degraded = true
	s.pending = nil
}

// cloneExport deep-copies the slice fields that alias the engine's
// reused export buffer; string fields are immutable and safe to share.
func cloneExport(e ProbeExport) ProbeExport {
	e.InterceptedV4 = append([]string(nil), e.InterceptedV4...)
	e.InterceptedV6 = append([]string(nil), e.InterceptedV6...)
	e.InconclusiveSteps = append([]string(nil), e.InconclusiveSteps...)
	return e
}

// RepairSinkTail truncates a line-oriented sink file back to its last
// complete line — discarding the partial record a torn write or kill
// left — and reports the complete rows on disk. A missing file is
// (0, nil).
func RepairSinkTail(path string) (rows int, err error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	end := bytes.LastIndexByte(blob, '\n')
	if end < 0 {
		// The whole file is one torn fragment.
		if len(blob) > 0 {
			if err := os.Truncate(path, 0); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	if end+1 != len(blob) {
		if err := os.Truncate(path, int64(end+1)); err != nil {
			return 0, err
		}
		blob = blob[:end+1]
	}
	return bytes.Count(blob, []byte{'\n'}), nil
}
