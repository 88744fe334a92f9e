package netsim

import "time"

// The event queue is a calendar (bucket) queue keyed on the simulated
// clock, replacing the earlier binary heap (kept in calqueue_test.go as
// eventHeap, the reference implementation the order-invariance property
// test compares against).
//
// Why a calendar queue fits this simulator: every enqueue is at
// now+delay with delays clustered around the 1ms default egress delay,
// so events land in the current or a nearby bucket and the queue
// behaves like an O(1) FIFO ring rather than an O(log n) heap. The
// bucket width is 2^20 ns (~1.05ms) — one hop's worth of virtual time —
// so a bucket rarely holds more than the packets of a single in-flight
// wave, and the ring's horizon (256 buckets ≈ 268ms of virtual time)
// comfortably covers any exchange's RTT spread. The rare event beyond
// the horizon (long fault delays, retry timers) goes to an unordered
// overflow slice that drains into the ring as the horizon reaches it.
//
// Determinism: the total order is (at, seq), exactly the heap's. Pop
// scans the head bucket for the minimum timestamp and returns every
// event carrying it in ascending seq order, so event order — and
// therefore every table the simulation feeds — is byte-identical to
// the heap's.

const (
	// calBucketBits sets the bucket width to 2^20 ns ≈ 1.05ms.
	calBucketBits = 20
	// calBuckets is the ring size; must be a power of two.
	calBuckets = 256
)

// calQueue is the calendar queue. The zero value is ready to use.
type calQueue struct {
	ring [calBuckets][]event
	// headTick is the tick (at >> calBucketBits) the ring's head bucket
	// holds; only meaningful while ringCount > 0.
	headTick  int64
	size      int // ring + overflow
	ringCount int
	// overflow holds events scheduled beyond the ring horizon, in
	// enqueue order; minOvfTick caches their earliest tick. The cache is
	// only meaningful while overflow is nonempty — read it through
	// ovfMin, never directly: a batch drain that empties the overflow
	// leaves minOvfTick holding the drained minimum, and a same-tick
	// re-insert that trusted the stale value would jump headTick into
	// the past and replay an already-scanned bucket out of order.
	overflow   []event
	minOvfTick int64
}

// calNoOverflow is ovfMin's result while the overflow is empty: later
// than any real tick, so every "is an overflow event due?" comparison
// fails closed.
const calNoOverflow = int64(1<<63 - 1)

// ovfMin returns the earliest overflow tick, or calNoOverflow when the
// overflow is empty. Centralizing the emptiness check here is what makes
// a stale minOvfTick unreadable (see the field comment).
func (q *calQueue) ovfMin() int64 {
	if len(q.overflow) == 0 {
		return calNoOverflow
	}
	return q.minOvfTick
}

func (q *calQueue) Len() int { return q.size }

// push schedules one event. Every caller enqueues at or after the
// current drain point (at >= now), so an event's tick is never behind
// headTick while the ring is nonempty.
func (q *calQueue) push(ev event) {
	tick := int64(ev.at) >> calBucketBits
	if q.ringCount == 0 {
		// Empty ring: jump it straight to the earliest pending tick so
		// an idle gap costs nothing to scan over. The jump must never
		// pass a pending overflow event — a bucket behind headTick
		// would otherwise go unscanned.
		if m := q.ovfMin(); m < tick {
			q.headTick = m
		} else {
			q.headTick = tick
		}
	}
	q.size++
	if tick >= q.headTick+calBuckets {
		if tick < q.ovfMin() {
			q.minOvfTick = tick
		}
		q.overflow = append(q.overflow, ev)
		return
	}
	if tick < q.headTick {
		// Behind the head (the empty-ring jump above keyed off a later
		// event): file it in the head bucket. The head bucket is always
		// scanned first and pops select by stored at, so an early event
		// still pops before everything else.
		tick = q.headTick
	}
	q.ring[tick&(calBuckets-1)] = append(q.ring[tick&(calBuckets-1)], ev)
	q.ringCount++
}

// popBatch removes every event sharing the earliest timestamp and
// appends them, in ascending seq order, to dst. The caller owns the
// returned slice until the next call; passing it back (re-sliced to
// zero length) reuses its storage. Empty queue returns dst unchanged.
func (q *calQueue) popBatch(dst []event) []event {
	if q.size == 0 {
		return dst
	}
	// Advance to the first nonempty bucket, draining overflow into the
	// ring whenever the horizon reaches its earliest tick — an overflow
	// event must never be outrun by a later-ticked ring event.
	for {
		if q.ringCount == 0 {
			// size > 0 with an empty ring means the overflow is nonempty
			// (size == ringCount + len(overflow)), so ovfMin is a real tick.
			q.headTick = q.ovfMin()
		}
		if q.ovfMin() < q.headTick+calBuckets {
			q.drainOverflow()
		}
		if len(q.ring[q.headTick&(calBuckets-1)]) > 0 {
			break
		}
		q.headTick++
	}
	b := q.ring[q.headTick&(calBuckets-1)]
	minAt := b[0].at
	for i := 1; i < len(b); i++ {
		if b[i].at < minAt {
			minAt = b[i].at
		}
	}
	// One compaction pass: events at minAt move to dst in slice order,
	// the rest keep their relative order in place.
	base := len(dst)
	keep := b[:0]
	for i := range b {
		if b[i].at == minAt {
			dst = append(dst, b[i])
		} else {
			keep = append(keep, b[i])
		}
	}
	q.ring[q.headTick&(calBuckets-1)] = keep
	removed := len(b) - len(keep)
	q.size -= removed
	q.ringCount -= removed
	// Bucket slice order is enqueue order except where a drained
	// overflow run interleaved; restore seq order then (rarely taken,
	// and the batch is near-sorted when it is).
	batch := dst[base:]
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j].seq < batch[j-1].seq; j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	return dst
}

// drainOverflow moves every overflow event inside the current horizon
// into the ring, keeping the rest (in order) and refreshing minOvfTick.
func (q *calQueue) drainOverflow() {
	ovf := q.overflow
	q.overflow = q.overflow[:0]
	for _, ev := range ovf {
		tick := int64(ev.at) >> calBucketBits
		if tick >= q.headTick+calBuckets {
			if tick < q.ovfMin() {
				q.minOvfTick = tick
			}
			q.overflow = append(q.overflow, ev)
			continue
		}
		q.ring[tick&(calBuckets-1)] = append(q.ring[tick&(calBuckets-1)], ev)
		q.ringCount++
	}
}

// peekAt returns the earliest scheduled timestamp without removing
// anything; only valid while size > 0. Test helper — it scans the whole
// structure rather than tracking state.
func (q *calQueue) peekAt() time.Duration {
	min := time.Duration(1<<63 - 1)
	for slot := range q.ring {
		for _, ev := range q.ring[slot] {
			if ev.at < min {
				min = ev.at
			}
		}
	}
	for _, ev := range q.overflow {
		if ev.at < min {
			min = ev.at
		}
	}
	return min
}
