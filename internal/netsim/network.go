package netsim

import (
	"errors"
	"fmt"
	"time"
)

// Device is anything that can receive a packet: a host, a router, a
// middlebox. Devices are wired to each other explicitly (a CPE knows its
// WAN gateway, a router has a routing table of next hops), mirroring
// physical topology rather than a global delivery shortcut — interception
// is a property of the path, so the path must be real.
type Device interface {
	// DeviceName identifies the device in traces.
	DeviceName() string
	// Receive handles one inbound packet. Implementations use ctx to
	// forward, deliver, or drop, and may rewrite the packet in place on
	// its way through. The packet is borrowed: it is valid only during
	// the call, and anything kept past it must be a copy.
	Receive(ctx *Ctx, pkt *Packet)
}

// EgressDelayer lets a device declare the one-way delay of its uplinks.
// Devices without it get the network's default. Delays make the
// simulation run on a virtual clock, so response times are meaningful:
// an interceptor near the client answers measurably faster than a
// distant anycast site — itself a known interception signal.
type EgressDelayer interface {
	EgressDelay() time.Duration
}

// Ctx gives a device controlled access to the network during packet
// handling.
type Ctx struct {
	net *Network
	dev Device
}

// Now returns the virtual time of the event being processed.
func (c *Ctx) Now() time.Duration { return c.net.now }

// Forward hands the packet to the next device after this device's link
// delay. The TTL is decremented here — every inter-device handoff is a
// routed hop. Packets whose TTL reaches zero are dropped; when
// EmitTimeExceeded is enabled, identified routers announce the expiry
// with ICMP, enabling traceroute. The packet is rewritten in place and
// copied once, into the event queue.
func (c *Ctx) Forward(next Device, pkt *Packet) {
	if next == nil {
		c.Drop(pkt, "no route")
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		if c.net.metrics != nil && pkt.Proto == UDP && isClientFlow(pkt) {
			c.net.metrics.ttlDrops.Inc()
		}
		c.net.trace(c.dev, TraceDrop, pkt, "ttl exceeded")
		// Routers announce the expiry (never for ICMP itself: no
		// ICMP-about-ICMP cascades).
		if c.net.EmitTimeExceeded && pkt.Proto != ICMP {
			if r, ok := c.dev.(*Router); ok {
				r.sendTimeExceeded(c, pkt)
			}
		}
		return
	}
	at := c.net.now + c.net.delayFrom(c.dev)
	if pkt.Proto == UDP && c.net.faults != nil {
		var ok bool
		if at, ok = c.net.applyFaults(c.dev, next, pkt, at); !ok {
			return
		}
	}
	if c.net.metrics != nil && pkt.Proto == UDP && isClientFlow(pkt) {
		c.net.metrics.forwarded.Inc()
	}
	if c.net.tracing() {
		c.net.trace(c.dev, TraceForward, pkt, "to "+next.DeviceName())
	}
	c.net.enqueue(next, pkt, at)
}

// Emit originates a packet at this device without a TTL decrement —
// the device is the packet's first hop, as when a local service answers.
func (c *Ctx) Emit(next Device, pkt *Packet) {
	if next == nil {
		c.Drop(pkt, "no route for emitted packet")
		return
	}
	if c.net.tracing() {
		c.net.trace(c.dev, TraceEmit, pkt, "via "+next.DeviceName())
	}
	c.net.enqueue(next, pkt, c.net.now+c.net.delayFrom(c.dev))
}

// Drop discards the packet, recording why.
func (c *Ctx) Drop(pkt *Packet, why string) {
	c.net.trace(c.dev, TraceDrop, pkt, why)
}

// Trace records a custom event (NAT rewrites etc.).
func (c *Ctx) Trace(kind TraceKind, pkt *Packet, note string) {
	c.net.trace(c.dev, kind, pkt, note)
}

// event is one scheduled delivery. It holds no pointers: the packet and
// its target device wait in the network's slot table, so the calendar
// queue moves 24-byte records with no GC write barriers and its
// buckets never pin a delivered packet's storage.
type event struct {
	at   time.Duration
	seq  int   // FIFO tiebreak for equal timestamps
	slot int32 // index into Network.slots
}

// slot is one packet in flight and the device it is scheduled to reach.
type slot struct {
	dev Device
	pkt Packet
}

// Network is the virtual-time event loop tying devices together. The
// event queue is a calendar queue (see calqueue.go); events are totally
// ordered by (at, seq), so delivery order is deterministic and
// independent of the queue's internal layout.
type Network struct {
	queue    calQueue
	batch    []event // reused popBatch buffer
	seq      int     // trace sequence
	eventSeq int     // event tiebreak sequence
	now      time.Duration
	taps     []func(TraceEvent)

	// slots holds every packet in flight, indexed by event.slot;
	// freeSlots lists the indices Run has released. The table grows
	// only to the most packets in flight at once.
	slots     []slot
	freeSlots []int32

	// ctx and sctx are the drain's reusable handles: devices and
	// services use them only synchronously, inside Receive and
	// ServeUDP, so one of each serves every delivery.
	ctx  Ctx
	sctx ServiceCtx

	// DefaultEgressDelay applies to devices that do not implement
	// EgressDelayer. One millisecond keeps virtual RTTs in a realistic
	// range without any configuration.
	DefaultEgressDelay time.Duration

	// MaxEvents bounds one Run to defend against forwarding loops.
	MaxEvents int

	// EmitTimeExceeded makes routers with a RouterID answer TTL expiry
	// with ICMP Time Exceeded — traceroute support.
	EmitTimeExceeded bool

	// faults is the installed fault-injection plane (see fault.go);
	// nil when no profile has ever been set.
	faults *faultPlane

	// metrics is the observability plane (see metrics.go); nil when
	// disabled, which reduces every instrumentation site to one branch.
	metrics *netMetrics

	// payloadFree recycles datagram payload buffers between exchanges.
	// The simulator is single-threaded, so a plain stack suffices. The
	// pool is bypassed while taps are installed: TraceEvents retain whole
	// Packets (payload included), and a tap may hold them indefinitely.
	payloadFree [][]byte
}

// payloadFreeMax bounds the freelist; a handful of buffers covers the
// in-flight set of any exchange, including replicated responses.
const payloadFreeMax = 32

// payloadMinCap keeps degenerate buffers (e.g. truncation-fault clones)
// out of the pool so recycled buffers are always worth reusing.
const payloadMinCap = 128

// PayloadBuf returns an empty buffer for building a datagram payload
// (typically via dnswire's PackTo). The buffer comes from the network's
// freelist when one is available; hand it back with RecyclePayload once
// no response can reference it. Returns nil while trace taps are
// installed — callers then pack into a fresh allocation, which taps may
// retain safely.
func (n *Network) PayloadBuf() []byte {
	if len(n.taps) > 0 {
		return nil
	}
	if k := len(n.payloadFree); k > 0 {
		buf := n.payloadFree[k-1]
		n.payloadFree = n.payloadFree[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, 512)
}

// RecyclePayload returns a payload buffer to the freelist. Only the
// exchange initiator may recycle: services never recycle payloads they
// received, because DNAT replication and fault duplication make packets
// share payload storage. Recycling is pure memory reuse — it never
// changes what bytes any packet carries — so determinism is unaffected.
func (n *Network) RecyclePayload(buf []byte) {
	if cap(buf) < payloadMinCap || len(n.taps) > 0 || len(n.payloadFree) >= payloadFreeMax {
		return
	}
	n.payloadFree = append(n.payloadFree, buf[:0])
}

// NewNetwork returns an empty network with a generous event budget.
func NewNetwork() *Network {
	return &Network{
		MaxEvents:          1 << 20,
		DefaultEgressDelay: time.Millisecond,
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// delayFrom resolves a device's egress link delay.
func (n *Network) delayFrom(dev Device) time.Duration {
	if d, ok := dev.(EgressDelayer); ok {
		if delay := d.EgressDelay(); delay > 0 {
			return delay
		}
	}
	return n.DefaultEgressDelay
}

// Tap registers a capture callback invoked for every trace event.
// Taps observe the whole network; per-device filtering is the callback's
// business.
func (n *Network) Tap(fn func(TraceEvent)) {
	n.taps = append(n.taps, fn)
}

// tracing reports whether any tap is installed. Call sites that build
// a trace note string check it first so the concatenation is not paid
// on untapped runs.
func (n *Network) tracing() bool { return len(n.taps) > 0 }

// trace dispatches one event to the taps, each with its own copy of
// the packet as it is now.
func (n *Network) trace(dev Device, kind TraceKind, pkt *Packet, note string) {
	if len(n.taps) == 0 {
		return
	}
	n.seq++
	ev := TraceEvent{Seq: n.seq, At: n.now, Device: dev.DeviceName(), Kind: kind, Packet: *pkt, Note: note}
	for _, t := range n.taps {
		t(ev)
	}
}

// enqueue schedules a delivery. It makes the packet's one copy per
// hop, into a free slot.
func (n *Network) enqueue(dev Device, pkt *Packet, at time.Duration) {
	var k int32
	if f := len(n.freeSlots); f > 0 {
		k = n.freeSlots[f-1]
		n.freeSlots = n.freeSlots[:f-1]
		s := &n.slots[k]
		s.dev, s.pkt = dev, *pkt
	} else {
		k = int32(len(n.slots))
		n.slots = append(n.slots, slot{dev: dev, pkt: *pkt})
	}
	n.eventSeq++
	n.queue.push(event{at: at, seq: n.eventSeq, slot: k})
}

// release frees a delivered packet's slot, dropping its Device and
// Payload references so the table never pins a packet's storage.
func (n *Network) release(k int32) {
	s := &n.slots[k]
	s.dev, s.pkt.Payload = nil, nil
	n.freeSlots = append(n.freeSlots, k)
}

// Inject introduces a packet at a device from outside (e.g. a host
// handing its own datagram to its gateway) at the current virtual time.
func (n *Network) Inject(dev Device, pkt Packet) {
	if pkt.SentAt == 0 {
		pkt.SentAt = n.now
	}
	n.enqueue(dev, &pkt, n.now)
}

// ErrEventBudget is returned by Run when the event budget is exhausted,
// which in a correct topology means a forwarding loop.
var ErrEventBudget = errors.New("netsim: event budget exhausted (forwarding loop?)")

// Run drains the event queue in virtual-time order. It returns the
// number of events processed.
//
// Events are drained in batches sharing one timestamp: the clock
// advances once per batch and the per-event work reduces to the
// dispatch itself. Receives may enqueue new events at the same
// timestamp (zero-delay hops); those carry higher seqs than the whole batch,
// so processing them in the next batch preserves the (at, seq) total
// order.
func (n *Network) Run() (int, error) {
	processed := 0
	// One Ctx serves the whole drain: devices only use it synchronously
	// inside Receive, so re-pointing dev per event is safe. It lives in
	// the Network, so handing it to Receive allocates nothing.
	ctx := &n.ctx
	ctx.net = n
	for n.queue.Len() > 0 {
		n.batch = n.queue.popBatch(n.batch[:0])
		if at := n.batch[0].at; at > n.now {
			n.now = at
		}
		for i, ev := range n.batch {
			if processed >= n.MaxEvents {
				for _, rest := range n.batch[i:] {
					n.release(rest.slot)
				}
				return processed, fmt.Errorf("%w after %d events", ErrEventBudget, processed)
			}
			processed++
			// Receive borrows the packet in its slot. It may enqueue and
			// so grow the table, which leaves s pointing at the old
			// backing array: release re-indexes.
			s := &n.slots[ev.slot]
			ctx.dev = s.dev
			n.trace(s.dev, TraceRecv, &s.pkt, "")
			s.dev.Receive(ctx, &s.pkt)
			n.release(ev.slot)
		}
	}
	return processed, nil
}
