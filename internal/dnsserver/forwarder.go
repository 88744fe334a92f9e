package dnsserver

import (
	"encoding/binary"
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// Forwarder is a dnsmasq-style DNS forwarder: the software that runs on
// nearly all CPE (Table 5 of the paper). It answers CHAOS debugging
// queries itself — the behavior the localization technique depends on —
// and relays everything else to a pre-configured upstream resolver.
type Forwarder struct {
	// Persona answers version.bind and friends. The persona string is
	// the fingerprint the detector compares (§3.2).
	Persona ChaosPersona

	// ForwardUnhandledChaos forwards CHAOS debugging queries the persona
	// does not implement upstream instead of answering NOTIMP. A CPE
	// configured this way while not intercepting is the §6
	// misclassification case.
	ForwardUnhandledChaos bool

	// Upstream is the resolver queries are relayed to — for an XDNS-style
	// CPE, the ISP resolver.
	Upstream netip.AddrPort

	// Egress is the source address of upstream queries (the CPE WAN
	// address).
	Egress netip.Addr

	// NoCache disables the answer cache; dnsmasq caches by default.
	NoCache bool

	// Metrics, when non-nil, receives query/cache counters. The set is
	// shared by every forwarder in a world (see ForwarderMetrics).
	Metrics *ForwarderMetrics

	// Adversary, when non-nil and active, evades CHAOS fingerprinting on
	// diverted flows instead of answering with the honest persona.
	Adversary *Adversary

	pending map[uint16]fwdPending
	// cache is keyed by the question in canonical wire form (see
	// dnswire.View.AppendCanonicalQuestion).
	cache    map[string]fwdCacheEntry
	nextPort uint16
}

type fwdPending struct {
	clientPkt netsim.Packet
	// key is the cache key the answer is stored under, or "" when the
	// answer is not to be cached.
	key string
}

type fwdCacheEntry struct {
	// wire is the upstream answer's packed bytes, owned by the entry;
	// hits are served by copying into a recycled buffer and patching the
	// ID — no re-pack.
	wire    []byte
	expires time.Duration
}

// NewForwarder creates a forwarder relaying to upstream from egress.
func NewForwarder(persona ChaosPersona, egress netip.Addr, upstream netip.AddrPort) *Forwarder {
	f := new(Forwarder)
	f.Reset(persona, egress, upstream)
	return f
}

// Reset returns the forwarder to the state NewForwarder gives it,
// keeping its storage: pending upstream queries and cached answers are
// emptied in place, the optional fields go back to their zero values,
// and upstream ports restart at 20000. A forwarder-cached answer
// therefore never outlives the reset.
func (f *Forwarder) Reset(persona ChaosPersona, egress netip.Addr, upstream netip.AddrPort) {
	pending, cache := f.pending, f.cache
	if pending == nil {
		pending, cache = make(map[uint16]fwdPending), make(map[string]fwdCacheEntry)
	} else {
		clear(pending)
		clear(cache)
	}
	*f = Forwarder{
		Persona:  persona,
		Upstream: upstream,
		Egress:   egress,
		pending:  pending,
		cache:    cache,
		nextPort: 20000,
	}
}

// ServeUDP implements netsim.Service.
func (f *Forwarder) ServeUDP(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	// Anything not addressed to port 53 is an upstream response — unless
	// Enc marks it as a client query a stream endpoint unwrapped and
	// handed over with its original encrypted-port destination (which
	// keeps conntrack reply-spoofing intact). Upstream responses always
	// carry Enc zero: the forwarder's own queries go out in the clear.
	if pkt.Dst.Port() != 53 && pkt.Enc == 0 {
		f.handleUpstream(sc, pkt)
		return
	}
	v, err := dnswire.ParseView(pkt.Payload)
	if err != nil || v.Header.Response || v.Header.QDCount == 0 {
		return
	}
	f.Metrics.query()
	if !f.Adversary.AllowBogon(pkt, f.Egress) {
		return
	}
	var name dnswire.Name // the CHAOS debugging name asked, if any
	if isChaosTXT(&v) {
		name = chaosDebugName(&v)
	}
	if name != "" {
		if r, ok, drop := f.Adversary.chaosAnswer(&v, pkt, f.Egress); drop {
			return
		} else if ok {
			f.Metrics.chaosLocal()
			r.send(sc, pkt, &v)
			return
		}
		answersLocally := (IsVersionQuery(name) && f.Persona.Version != "") ||
			(IsIdentityQuery(name) && f.Persona.Identity != "")
		if answersLocally || !f.ForwardUnhandledChaos {
			f.Metrics.chaosLocal()
			f.Persona.answer(name).send(sc, pkt, &v)
			return
		}
		// Fall through: forward the debugging query upstream.
	}
	// dnsmasq-style cache: repeated LAN lookups are answered locally.
	var keyBuf [260]byte // a question's canonical wire form fits
	var key []byte
	if _, class, _ := v.Question(); !f.NoCache && class == dnswire.ClassINET {
		key = v.AppendCanonicalQuestion(keyBuf[:0])
		if e, ok := f.cache[string(key)]; ok {
			if e.expires > sc.Now() {
				f.Metrics.cacheHit()
				buf := append(sc.PayloadBuf(), e.wire...)
				binary.BigEndian.PutUint16(buf[0:2], v.Header.ID)
				sc.Reply(pkt, buf)
				return
			}
			delete(f.cache, string(key))
		}
		f.Metrics.cacheMiss()
	}
	f.forward(sc, pkt, &v, key)
}

// forward relays the viewed query upstream on a fresh ephemeral port;
// the answer is cached under key unless key is empty.
func (f *Forwarder) forward(sc *netsim.ServiceCtx, pkt *netsim.Packet, v *dnswire.View, key []byte) {
	if !f.Upstream.IsValid() || !f.Egress.IsValid() {
		sendError(sc, pkt, v, dnswire.RCodeServerFailure)
		return
	}
	f.Metrics.forwarded()
	port := f.allocPort()
	f.pending[port] = fwdPending{clientPkt: *pkt, key: string(key)}
	sc.Router.Bind(port, f)
	// The upstream query shares the client's payload bytes: payloads are
	// immutable in flight, and only the exchange initiator recycles them.
	sc.Send(netsim.Packet{
		Src:     netip.AddrPortFrom(f.Egress, port),
		Dst:     f.Upstream,
		Proto:   netsim.UDP,
		TTL:     netsim.DefaultTTL,
		Payload: pkt.Payload,
	})
}

// handleUpstream relays an upstream response back to the waiting client.
func (f *Forwarder) handleUpstream(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	p, ok := f.pending[pkt.Dst.Port()]
	if !ok {
		return
	}
	delete(f.pending, pkt.Dst.Port())
	sc.Router.Unbind(pkt.Dst.Port())
	if p.key != "" {
		f.maybeCache(sc, p.key, pkt.Payload)
	}
	// Relay the upstream bytes as-is; the client (the flow's initiator)
	// owns the recycling of this payload.
	sc.Reply(&p.clientPkt, pkt.Payload)
}

// maybeCache stores a successful upstream answer under key for its
// minimum TTL. TTL-zero records (the dynamic echo zones) stay
// uncacheable.
func (f *Forwarder) maybeCache(sc *netsim.ServiceCtx, key string, payload []byte) {
	v, err := dnswire.ParseView(payload)
	if err != nil || v.Header.RCode != dnswire.RCodeSuccess || v.Header.ANCount == 0 {
		return
	}
	minTTL := ^uint32(0)
	for ans := v.Answers(); ans.Next(); {
		minTTL = min(minTTL, ans.TTL)
	}
	if minTTL == 0 {
		return
	}
	// Own the bytes: the relayed payload buffer is recycled by the
	// client once parsed, so the entry must keep its own copy.
	f.cache[key] = fwdCacheEntry{
		wire:    append([]byte(nil), payload...),
		expires: sc.Now() + time.Duration(minTTL)*time.Second,
	}
}

// allocPort cycles upstream ports within [20000, 28000).
func (f *Forwarder) allocPort() uint16 {
	p := f.nextPort
	f.nextPort++
	if f.nextPort >= 28000 {
		f.nextPort = 20000
	}
	return p
}
