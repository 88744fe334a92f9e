package dnsserver

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// Adversary models an interceptor that actively evades the CHAOS
// fingerprinting technique instead of answering debugging queries with
// its own honest persona. The paper's detector assumes interceptors
// stay polite about version.bind (§3.2); this ladder is what happens
// when they stop. Levels are cumulative — level N enables every evasion
// at or below N:
//
//	L0  honest: the persona answers, as today (Adversary absent).
//	L1  replay: answer CHAOS debugging queries with the genuine answer
//	    the diverted-to target would have given, making the intercepted
//	    path indistinguishable from the real one on that signal.
//	L2  forge: fabricate format-valid per-target persona strings, so
//	    even validators that check answer shape pass. Forgeries are
//	    drawn per query ID, which is what longitudinal re-probing
//	    (Whac-A-Mole) later exploits as answer-set drift.
//	L3  selective bogons: answer only a deterministic subset of clients'
//	    bogon-addressed queries, degrading the §4.2 ISP-localization
//	    signal without fully surrendering it.
//	L4  CHAOS rate limiting: silently drop CHAOS debugging queries past
//	    a small per-client budget — the DPI-ambiguity behavior Xue et
//	    al. describe — starving repeated fingerprint probes.
//
// Every decision is a pure function of (Seed, addresses, query name,
// query ID) or of a per-(device, client) counter fed only by that
// client's own packets, so faulted sharded runs stay byte-identical at
// any worker count — the same contract netsim's fault plane keeps.
//
// The adversary only tampers with *diverted* flows: packets whose
// conntrack original destination (Packet.OrigDst) is set and differs
// from the serving device's own address. Queries addressed to the
// device itself — the detector's direct CPE fingerprint probe, or a
// forwarder's upstream traffic — are answered honestly, because a real
// evasive middlebox has no reason to lie about flows that never claimed
// to be someone else.
type Adversary struct {
	// Level selects the evasion rung (0 disables the adversary).
	Level int
	// Seed isolates this adversary's deterministic draws.
	Seed int64

	// Genuine returns the CHAOS debugging answer the original target
	// would have given: a TXT string, or (when txt is empty) the error
	// rcode the target answers with. ok reports whether the target is
	// known; unknown targets fall through to the honest persona.
	Genuine func(target netip.Addr, name dnswire.Name) (txt string, rc dnswire.RCode, ok bool)

	// Forge fabricates a format-valid persona string for the operator
	// owning target. ok=false means "no forgery for this query" — the
	// adversary replays the genuine answer instead (forging a string
	// where the target genuinely errors would give the game away).
	Forge func(target netip.Addr, name dnswire.Name, draw uint64) (string, bool)

	// Bogon reports whether an address is a bogon destination — the
	// detector's ISP-localization canary targets (§4.2).
	Bogon func(netip.Addr) bool

	// ChaosBudget is the L4 per-client CHAOS query allowance (0 means
	// DefaultChaosBudget). There is no refill: the budget models a DPI
	// box that stops cooperating once a client looks like a scanner.
	ChaosBudget int

	budgets map[advKey]int
}

// DefaultChaosBudget lets the first CHAOS exchange through (both
// service addresses of one operator) and drops the rest.
const DefaultChaosBudget = 2

// advKey scopes the L4 budget to one (device, client) pair: a client's
// allowance depends only on its own packets, never on what other
// subscribers share the middlebox — the property that keeps sharded
// runs byte-identical.
type advKey struct {
	self   netip.Addr
	client netip.Addr
}

// Tags keep the deterministic draws of different mechanisms independent.
const (
	advTagForge = "adv-forge"
	advTagBogon = "adv-bogon"
)

// chaosAnswer intercepts a CHAOS debugging query diverted to the device
// at self. It returns the evasive reply with ok set, or drop=true when
// the query must be silently consumed (L4 rate limiting). Neither means
// the adversary does not apply — serve honestly.
func (a *Adversary) chaosAnswer(v *dnswire.View, pkt netsim.Packet, self netip.Addr) (r chaosReply, ok, drop bool) {
	if a == nil || a.Level < 1 {
		return r, false, false
	}
	target := pkt.OrigDst
	if !target.IsValid() || target.Addr() == self || !isChaosTXT(v) {
		return r, false, false
	}
	name := chaosDebugName(v)
	if name == "" {
		return r, false, false
	}
	if a.Level >= 4 && !a.allowChaos(self, pkt.Src.Addr()) {
		return r, false, true
	}
	if a.Level >= 2 && a.Forge != nil {
		if s, ok := a.Forge(target.Addr(), name, a.forgeDraw(target.Addr(), name, v.Header.ID)); ok {
			return chaosReply{txt: s}, true, false
		}
	}
	if a.Genuine != nil {
		if txt, rc, ok := a.Genuine(target.Addr(), name); ok {
			if txt != "" {
				return chaosReply{txt: txt}, true, false
			}
			return chaosError(rc), true, false
		}
	}
	return r, false, false
}

// AllowBogon gates INET queries whose original destination is a bogon
// address: at L3+ only a deterministic half of clients get answers,
// judged per (device, client) so retries and re-probe rounds see a
// consistent fate. Non-bogon and non-diverted traffic always passes.
func (a *Adversary) AllowBogon(pkt netsim.Packet, self netip.Addr) bool {
	if a == nil || a.Level < 3 || a.Bogon == nil {
		return true
	}
	target := pkt.OrigDst
	if !target.IsValid() || target.Addr() == self || !a.Bogon(target.Addr()) {
		return true
	}
	return a.flowDraw(advTagBogon, self, pkt.Src.Addr()) < 0.5
}

// allowChaos charges one token from the (self, client) budget.
func (a *Adversary) allowChaos(self, client netip.Addr) bool {
	if a.budgets == nil {
		a.budgets = make(map[advKey]int)
	}
	key := advKey{self: self, client: client}
	n, ok := a.budgets[key]
	if !ok {
		n = a.ChaosBudget
		if n <= 0 {
			n = DefaultChaosBudget
		}
	}
	if n <= 0 {
		return false
	}
	a.budgets[key] = n - 1
	return true
}

// forgeDraw derives the forgery's deterministic randomness from the
// query itself. Including the query ID makes retransmissions of one
// query (same message, same ID) see a stable forgery while fresh
// re-probe rounds (fresh IDs) see a different one — which is exactly
// the drift signal longitudinal re-probing detects.
func (a *Adversary) forgeDraw(target netip.Addr, name dnswire.Name, id uint16) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(a.Seed))
	h.Write(buf[:])
	h.Write([]byte(advTagForge))
	t16 := target.As16()
	h.Write(t16[:])
	h.Write([]byte(name.Canonical()))
	binary.LittleEndian.PutUint16(buf[:2], id)
	h.Write(buf[:2])
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer. FNV-64a avalanches poorly —
// inputs differing only in a trailing byte (neighboring client
// addresses) land close together — so the raw sum would make the L3
// gate nearly all-or-nothing within one prefix instead of a per-client
// coin flip.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// flowDraw derives a uniform [0, 1) draw from (seed, tag, device,
// client) — stable across the client's whole measurement.
func (a *Adversary) flowDraw(tag string, self, client netip.Addr) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(a.Seed))
	h.Write(buf[:])
	h.Write([]byte(tag))
	s16 := self.As16()
	h.Write(s16[:])
	c16 := client.As16()
	h.Write(c16[:])
	return float64(mix64(h.Sum64())>>11) / (1 << 53)
}
