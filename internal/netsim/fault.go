package netsim

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// FaultProfile describes deterministic fault injection on forwarded
// packets. Real DNS paths misbehave in structured ways, not as a
// uniform per-hop coin flip: bursty loss (Wei & Heidemann's Whac-A-Mole), duplication, reordering,
// and CPE/resolver-side damage such as response truncation and rate
// limiting. A profile models all of them at once, each scaled
// independently, and every decision is derived either from a
// per-(device, client) RNG chain or from a content hash of the packet,
// never from shared stream state. That is what keeps a faulted study
// byte-identical at any worker count: a flow's fault fate depends only
// on the flow itself, not on what other traffic shares the simulator.
//
// Only UDP packets experience faults; ICMP passes untouched so
// traceroute stays usable for diagnosis.
type FaultProfile struct {
	// Seed isolates this profile's randomness; two profiles with equal
	// parameters and seeds produce identical fault traces.
	Seed int64

	// Gilbert–Elliott burst loss: a two-state Markov chain per
	// (device, client) advances one step per forwarded packet.
	// PGoodBad/PBadGood are the state transition probabilities;
	// LossGood/LossBad the per-packet drop probability in each state.
	PGoodBad float64
	PBadGood float64
	LossGood float64
	LossBad  float64

	// DupProb duplicates a forwarded packet (both copies continue, with
	// distinct downstream fault fates via the duplicate's salt).
	DupProb float64

	// ReorderProb delays a packet by up to ReorderJitter extra link
	// latency, letting later packets overtake it.
	ReorderProb   float64
	ReorderJitter time.Duration

	// TruncProb clips DNS responses (source port 53) to TruncBytes,
	// modeling CPE forwarders that damage large answers. A clip below
	// the DNS header size turns the response into garbage the client
	// must classify rather than parse.
	TruncProb  float64
	TruncBytes int

	// Token-bucket rate limiting of queries arriving at a device that
	// owns the destination address: each client starts with RateBurst
	// tokens and earns one back per RateRefillEvery packets it sends.
	// Refill is query-count-based rather than clock-based so the drop
	// pattern is independent of virtual-clock skew between shards.
	RateLimitPort   uint16
	RateBurst       int
	RateRefillEvery int
}

// Active reports whether any fault mechanism is enabled.
func (p FaultProfile) Active() bool {
	return p.linkActive() || (p.RateLimitPort != 0 && p.RateBurst > 0)
}

// linkActive reports whether any per-hop link fault is enabled.
func (p FaultProfile) linkActive() bool {
	return p.PGoodBad > 0 || p.LossGood > 0 || p.DupProb > 0 ||
		p.ReorderProb > 0 || p.TruncProb > 0
}

// PresetFault builds a profile whose severity scales with level in
// [0, 1]: 0 disables everything, 1 is a badly impaired path (roughly 3%
// steady-state per-hop loss in bursts, plus duplication, reordering,
// truncation, and resolver rate limiting). The resilience sweep feeds
// it evenly spaced levels.
func PresetFault(level float64, seed int64) FaultProfile {
	if level <= 0 {
		return FaultProfile{}
	}
	if level > 1 {
		level = 1
	}
	return FaultProfile{
		Seed:            seed,
		PGoodBad:        0.02 * level,
		PBadGood:        0.35,
		LossGood:        0.005 * level,
		LossBad:         0.10 + 0.35*level,
		DupProb:         0.01 * level,
		ReorderProb:     0.04 * level,
		ReorderJitter:   2 * time.Millisecond,
		TruncProb:       0.02 * level,
		TruncBytes:      20, // mid-question: always garbage, never a half-parsed answer
		RateLimitPort:   53,
		RateBurst:       8 - int(4*level),
		RateRefillEvery: 2,
	}
}

// Fault decision tags keep the content-hash draws for different
// mechanisms independent of each other.
const (
	tagDup     = 0x1
	tagReorder = 0x2
	tagJitter  = 0x3
	tagTrunc   = 0x4
)

// faultKey identifies per-flow fault state at one device. The client is
// the non-service side of the flow, so a query and its response share
// state while different subscribers never do — which also bounds the
// table at one entry per (device, subscriber).
type faultKey struct {
	dev    string
	client netip.Addr
}

// geChain is one Gilbert–Elliott channel: its state and its position
// in the flow's seeded math/rand stream, 24 bytes per flow.
type geChain struct {
	rng lazyRand
	bad bool
}

// rateState is one client's token bucket at a rate-limited device.
type rateState struct {
	tokens int
	seen   int
}

// flowTable holds one state per faultKey: the map gives the key's
// index into a slab, so a flow step is one map probe, and the state is
// then changed in place. The slab lives for one probe (ForgetFaultFlows).
type flowTable[T any] struct {
	idx  map[faultKey]int32
	slab []T
}

// at returns the key's state, and true when it was just made (zeroed).
// The pointer is valid until the next call.
func (t *flowTable[T]) at(key faultKey) (*T, bool) {
	i, ok := t.idx[key]
	if !ok {
		i = int32(len(t.slab))
		t.idx[key] = i
		var zero T
		t.slab = append(t.slab, zero)
	}
	return &t.slab[i], !ok
}

// reset forgets every state, keeping the storage for the next probe.
func (t *flowTable[T]) reset() {
	clear(t.idx)
	t.slab = t.slab[:0]
}

// faultPlane holds the network's installed profiles and their state.
// byDev, per-device overrides of def, is made and filled only by this
// package's tests, which fault a single link.
type faultPlane struct {
	def    *FaultProfile
	byDev  map[string]*FaultProfile
	chains flowTable[geChain]
	rates  flowTable[rateState]
}

func newFaultPlane() *faultPlane {
	return &faultPlane{
		chains: flowTable[geChain]{idx: make(map[faultKey]int32)},
		rates:  flowTable[rateState]{idx: make(map[faultKey]int32)},
	}
}

// SetDefaultFault installs a profile applied at every device that has
// no per-device override. An inactive profile clears it.
func (n *Network) SetDefaultFault(p FaultProfile) {
	if n.faults == nil {
		n.faults = newFaultPlane()
	}
	if p.Active() {
		n.faults.def = &p
	} else {
		n.faults.def = nil
	}
}

// ForgetFaultFlows drops the fault plane's per-flow state: every
// Gilbert–Elliott chain and token bucket. A flow that passes again
// starts afresh, as if it had never passed. The study calls it at each
// probe boundary, once the probe's flows have all ended: a probe's
// chains and buckets are keyed by its own devices and addresses, so
// no later probe would read them. Nothing is sent.
func (n *Network) ForgetFaultFlows() {
	if n.faults != nil {
		n.faults.chains.reset()
		n.faults.rates.reset()
	}
}

// profileFor resolves the profile governing a device. Outside this
// package's tests there is no override, and no name to look up.
func (f *faultPlane) profileFor(dev Device) *FaultProfile {
	if len(f.byDev) > 0 {
		if p, ok := f.byDev[dev.DeviceName()]; ok {
			return p
		}
	}
	return f.def
}

// clientOf extracts the flow's client address: the side not speaking
// from a well-known service port.
func clientOf(pkt *Packet) netip.Addr {
	if pkt.Src.Port() == 53 {
		return pkt.Dst.Addr()
	}
	return pkt.Src.Addr()
}

// minClientPort is the lowest client-side port of a probe flow. The
// simulator's port ranges are disjoint by construction: recursive
// resolvers open upstream ports in [10000, 20000), CPE forwarders in
// [20000, 28000), SNAT external ports start at 30000, and host
// ephemeral ports at 49152.
const minClientPort = 28000

// isClientFlow reports whether the packet belongs to a probe's own
// query flow rather than infrastructure recursion (resolver → root/TLD/
// auth) or forwarder upstream traffic. Only client flows are faulted:
// recursion traffic's very existence depends on per-shard resolver
// cache warmth, so faulting it would make outcomes depend on which
// probes share a world — breaking the byte-identical-at-any-worker-
// count contract. The client-visible effect is preserved either way:
// faults land on the access path, where the paper's CPEs live.
func isClientFlow(pkt *Packet) bool {
	cp := pkt.Src.Port()
	if cp == 53 {
		cp = pkt.Dst.Port()
	}
	return cp >= minClientPort
}

// geDrop advances the flow's Gilbert–Elliott chain one packet and
// samples loss. The chain's stream is math/rand's, seeded from
// (profile seed, device, client), so it depends only on the flow's own
// packet count through this device. hop is the device's hash prefix
// (hopPrefix).
func (f *faultPlane) geDrop(dev string, hop uint64, fp *FaultProfile, pkt *Packet) bool {
	if fp.PGoodBad <= 0 && fp.LossGood <= 0 {
		return false
	}
	client := clientOf(pkt)
	ch, fresh := f.chains.at(faultKey{dev: dev, client: client})
	if fresh {
		ch.rng = newLazyRand(flowSeed(hop, client))
	}
	if ch.bad {
		if ch.rng.float64() < fp.PBadGood {
			ch.bad = false
		}
	} else {
		if ch.rng.float64() < fp.PGoodBad {
			ch.bad = true
		}
	}
	p := fp.LossGood
	if ch.bad {
		p = fp.LossBad
	}
	return p > 0 && ch.rng.float64() < p
}

// allowRate charges one token for a query arriving at a rate-limited
// device and reports whether it may pass.
func (f *faultPlane) allowRate(dev string, fp *FaultProfile, pkt *Packet) bool {
	if fp.RateBurst <= 0 {
		return true
	}
	rs, fresh := f.rates.at(faultKey{dev: dev, client: clientOf(pkt)})
	if fresh {
		rs.tokens = fp.RateBurst
	}
	rs.seen++
	if fp.RateRefillEvery > 0 && rs.seen%fp.RateRefillEvery == 0 && rs.tokens < fp.RateBurst {
		rs.tokens++
	}
	allow := rs.tokens > 0
	if allow {
		rs.tokens--
	}
	return allow
}

// hopPrefix is the FNV-1a state after the profile seed and the device
// name: the prefix of every roll and flow seed at that device, hashed
// once per hop.
func hopPrefix(seed int64, dev string) uint64 {
	return fnvString(fnvUint64(fnvOffset64, uint64(seed)), dev)
}

// rolls derives three deterministic uniform [0, 1) draws, one per tag,
// from the packet's content at one device; hop is the device's
// hopPrefix. Retransmissions differ (fresh ephemeral source port),
// duplicate copies differ (salt), and the same packet at successive
// hops differs (TTL), so every decision point gets an independent draw
// with no cross-flow state. Each draw is 64-bit FNV-1a over the seed,
// the device name, (tag, TTL, salt), both endpoints, the payload length
// and the DNS query ID. The tags part the hashes at their first byte,
// so the three run as independent multiply chains over the same bytes.
func rolls(hop uint64, pkt *Packet, t0, t1, t2 byte) (float64, float64, float64) {
	h := fnv3{fnvByte(hop, t0), fnvByte(hop, t1), fnvByte(hop, t2)}
	h = h.byte(byte(pkt.TTL)).byte(pkt.FaultSalt)
	h = h.addrPort(pkt.Src).addrPort(pkt.Dst)
	if n := len(pkt.Payload); n < 1<<16 {
		h = h.byte(byte(n)).byte(byte(n >> 8)).mul(fnvPrime64Pow6)
	} else {
		for i := 0; i < 64; i += 8 {
			h = h.byte(byte(n >> i))
		}
	}
	if len(pkt.Payload) >= 2 {
		h = h.byte(pkt.Payload[0]).byte(pkt.Payload[1]) // the DNS query ID
	}
	return unitFloat(h.a), unitFloat(h.b), unitFloat(h.c)
}

// unitFloat maps a hash to [0, 1) by its top 53 bits.
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// flowSeed derives a chain seed from the device's hopPrefix and the
// client: 64-bit FNV-1a over the seed, the device name and the client
// address.
func flowSeed(hop uint64, client netip.Addr) int64 {
	for _, b := range client.As16() {
		hop = fnvByte(hop, b)
	}
	return int64(hop)
}

// 64-bit FNV-1a, computed inline so that hashing a packet allocates
// nothing. Multi-byte integers are hashed little-endian and addresses
// in their 16-byte form. A zero byte's XOR is the identity, so a known
// run of k zero bytes is one multiply by the prime's k-th power: the
// ten leading zeros of an IPv4 (or v4-mapped) address's 16-byte form,
// and the six high bytes of a length below 2¹⁶.
const (
	fnvOffset64     = 14695981039346656037
	fnvPrime64      = 1099511628211
	fnvPrime64Pow6  = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
	fnvPrime64Pow10 = fnvPrime64Pow6 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = fnvByte(h, byte(v>>i))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnv3 is three FNV-1a states fed the same bytes.
type fnv3 struct{ a, b, c uint64 }

func (h fnv3) byte(x byte) fnv3 {
	v := uint64(x)
	return fnv3{(h.a ^ v) * fnvPrime64, (h.b ^ v) * fnvPrime64, (h.c ^ v) * fnvPrime64}
}

func (h fnv3) mul(p uint64) fnv3 { return fnv3{h.a * p, h.b * p, h.c * p} }

func (h fnv3) addrPort(ap netip.AddrPort) fnv3 {
	a := ap.Addr().As16()
	i := 0
	if binary.BigEndian.Uint64(a[:8]) == 0 && a[8]|a[9] == 0 {
		h, i = h.mul(fnvPrime64Pow10), 10
	}
	for ; i < 16; i++ {
		h = h.byte(a[i])
	}
	p := ap.Port()
	return h.byte(byte(p)).byte(byte(p >> 8))
}

// applyFaults runs the fault plane on one forwarded hop: link faults
// under the sending device's profile, then rate limiting under the
// receiving device's. It rewrites the packet in place and returns its
// delivery time, and false when the packet was consumed. Duplicate
// copies are enqueued directly.
func (n *Network) applyFaults(dev, next Device, pkt *Packet, at time.Duration) (time.Duration, bool) {
	f := n.faults
	if !isClientFlow(pkt) {
		return at, true
	}
	if fp := f.profileFor(dev); fp != nil && fp.linkActive() {
		name := dev.DeviceName()
		hop := hopPrefix(fp.Seed, name)
		if f.geDrop(name, hop, fp, pkt) {
			if n.metrics != nil {
				n.metrics.burstDrops.Inc()
			}
			n.trace(dev, TraceDrop, pkt, "fault: burst loss")
			return at, false
		}
		rollTrunc, rollDup, rollReorder := rolls(hop, pkt, tagTrunc, tagDup, tagReorder)
		if fp.TruncProb > 0 && fp.TruncBytes > 0 && pkt.Src.Port() == 53 &&
			len(pkt.Payload) > fp.TruncBytes && rollTrunc < fp.TruncProb {
			// Clone before clipping: the payload may be shared with a
			// duplicate copy already in flight.
			pkt.Payload = append([]byte(nil), pkt.Payload[:fp.TruncBytes]...)
			if n.metrics != nil {
				n.metrics.truncated.Inc()
			}
			n.trace(dev, TraceFault, pkt, "fault: response truncated")
			// The later decisions draw over the clipped packet.
			_, rollDup, rollReorder = rolls(hop, pkt, tagTrunc, tagDup, tagReorder)
		}
		if fp.DupProb > 0 && rollDup < fp.DupProb {
			dup := *pkt
			dup.FaultSalt++
			if n.metrics != nil {
				n.metrics.dupCopies.Inc()
			}
			if n.tracing() {
				n.trace(dev, TraceFault, &dup, "fault: duplicated to "+next.DeviceName())
			}
			n.enqueue(next, &dup, at)
		}
		if fp.ReorderProb > 0 && fp.ReorderJitter > 0 && rollReorder < fp.ReorderProb {
			// Jitter is drawn only when a packet is reordered; the
			// spare lanes of its pass cost no extra latency.
			jitter, _, _ := rolls(hop, pkt, tagJitter, tagJitter, tagJitter)
			extra := time.Duration(jitter * float64(fp.ReorderJitter))
			at += extra
			if n.metrics != nil {
				n.metrics.reordered.Inc()
			}
			if n.tracing() {
				n.trace(dev, TraceFault, pkt, "fault: reordered (+"+extra.String()+")")
			}
		}
	}
	if fp := f.profileFor(next); fp != nil && fp.RateLimitPort != 0 &&
		pkt.Dst.Port() == fp.RateLimitPort {
		// Only the device that terminates the flow rate-limits; transit
		// hops towards it do not double-charge the bucket.
		if r, ok := next.(*Router); ok && r.HasAddr(pkt.Dst.Addr()) {
			if !f.allowRate(next.DeviceName(), fp, pkt) {
				if n.metrics != nil {
					n.metrics.rateDrops.Inc()
				}
				if n.tracing() {
					n.trace(dev, TraceDrop, pkt, "fault: rate limited by "+next.DeviceName())
				}
				return at, false
			}
		}
	}
	return at, true
}
