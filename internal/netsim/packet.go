// Package netsim is a deterministic, packet-level network simulator.
//
// It exists because the paper's vantage point — a measurement probe in a
// real home, behind real CPE, inside a real ISP — cannot exist in an
// offline build. The simulator reproduces that vantage mechanically:
// hosts exchange real DNS packets (encoded by internal/dnswire) through
// routers that forward hop-by-hop, decrement TTLs, apply
// netfilter-style prerouting/postrouting hooks, and rewrite flows
// through NAT tables with connection tracking. Transparent DNS
// interception is then *implemented*, not faked: a DNAT rule on the CPE
// or an ISP middlebox diverts port-53 flows exactly the way the RDK-B
// firewall does on the XB6 router (paper §5), and conntrack makes the
// response appear to come from the original destination.
//
// The simulator is synchronous and single-threaded: injecting a packet
// enqueues an event, and Run drains the queue in FIFO order. Services
// that need upstream round trips (forwarders, recursive resolvers) are
// written as state machines, as their real counterparts are.
package netsim

import (
	"fmt"
	"net/netip"
	"time"
)

// Proto is a transport protocol number. Port-53 DNS interception of the
// kind the paper studies is a UDP phenomenon; TCP carries the modeled
// encrypted stream sessions (DoT/DoH, see stream.go), which is exactly
// why the UDP-gated interception rules never touch them.
type Proto uint8

// Protocols.
const (
	ICMP Proto = 1
	TCP  Proto = 6
	UDP  Proto = 17
)

// String returns the protocol mnemonic.
func (p Proto) String() string {
	switch p {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case ICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto%d", p)
	}
}

// DefaultTTL is the initial hop limit for packets sent by hosts, matching
// common OS defaults.
const DefaultTTL = 64

// Packet is one simulated datagram.
type Packet struct {
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Proto   Proto
	TTL     int
	Payload []byte

	// SentAt is the virtual time the originating request entered the
	// network. Services copy it from request to response so that
	// ArrivedAt-SentAt is a flow's round-trip time.
	SentAt time.Duration
	// OrigDst is conntrack's "original destination": the destination the
	// packet carried before the first DNAT rewrite on its path. Zero on
	// packets that never hit a DNAT rule. A diverted-to service reads it
	// to learn which address the client actually queried — the same
	// information SO_ORIGINAL_DST exposes to real transparent proxies.
	OrigDst netip.AddrPort
	// FaultSalt distinguishes fault-injected duplicate copies from
	// their originals, so the copies roll independent fault fates at
	// later hops. Zero on every originated packet.
	FaultSalt uint8
	// Enc marks a packet as belonging to an encrypted stream session:
	// zero for plaintext, else the session's ALPN code (ALPNDoT/ALPNDoH).
	// A stream endpoint stamps it on the inner request it hands its
	// backing service, and ServiceCtx.Reply copies it request-to-response,
	// so even a service that answers asynchronously (a forwarder waiting
	// on its upstream) returns the response inside the client's session.
	Enc uint8
	// ArrivedAt is stamped by the receiving host on final delivery.
	ArrivedAt time.Duration
}

// RTT is the packet's round-trip time (valid on delivered responses).
func (p Packet) RTT() time.Duration { return p.ArrivedAt - p.SentAt }

// Clone deep-copies the packet, including its payload.
func (p Packet) Clone() Packet {
	q := p
	q.Payload = append([]byte(nil), p.Payload...)
	return q
}

// IsIPv6 reports whether the packet travels over IPv6, judged by its
// destination address family.
func (p Packet) IsIPv6() bool { return isIPv6(p.Dst.Addr()) }

// isIPv6 reports whether a is an IPv6 address other than a v4-mapped
// one.
func isIPv6(a netip.Addr) bool { return a.Is6() && !a.Is4In6() }

// String renders the packet for traces: "udp 10.0.0.2:5000 > 8.8.8.8:53 ttl=64 len=29".
func (p Packet) String() string {
	return fmt.Sprintf("%s %s > %s ttl=%d len=%d", p.Proto, p.Src, p.Dst, p.TTL, len(p.Payload))
}

// TraceKind classifies a trace event.
type TraceKind string

// Trace event kinds.
const (
	TraceRecv    TraceKind = "recv"    // packet arrived at a device
	TraceForward TraceKind = "fwd"     // packet forwarded to the next hop
	TraceDeliver TraceKind = "deliver" // packet delivered to a local service or host
	TraceDrop    TraceKind = "drop"    // packet dropped
	TraceDNAT    TraceKind = "dnat"    // destination rewritten
	TraceSNAT    TraceKind = "snat"    // source rewritten
	TraceUnDNAT  TraceKind = "undnat"  // reply source restored (spoofing point)
	TraceUnSNAT  TraceKind = "unsnat"  // reply destination restored
	TraceEmit    TraceKind = "emit"    // packet originated by a local service
	TraceFault   TraceKind = "fault"   // fault plane rewrote or replicated the packet
)

// TraceEvent is one packet-level observation, the unit of the simulator's
// capture facility (the moral equivalent of tcpdump on every interface).
type TraceEvent struct {
	Seq    int
	At     time.Duration // virtual capture time
	Device string
	Kind   TraceKind
	Packet Packet
	Note   string
}

// String renders the event in a capture-log style.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("#%03d %9.3fms %-18s %-8s %s",
		e.Seq, float64(e.At)/float64(time.Millisecond), e.Device, e.Kind, e.Packet)
	if e.Note != "" {
		s += "  (" + e.Note + ")"
	}
	return s
}
