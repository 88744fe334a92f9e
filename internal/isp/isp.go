// Package isp models an autonomous system operated by a residential
// ISP: a border router that peers with regional transit (and drops
// bogon-addressed packets at the edge, which is why bogon queries
// cannot escape the AS — §3.3), access segments that subscribers'
// CPE attach to, an in-AS recursive resolver, and optional transparent
// port-53 middleboxes on individual access segments.
package isp

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"github.com/dnswatch/dnsloc/internal/bogon"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// MiddleboxRule is one DNAT rule of an ISP interception middlebox.
type MiddleboxRule struct {
	// All intercepts every v4 port-53 destination.
	All bool
	// Targets intercepts only these destinations (ignored when All).
	Targets []netip.Addr
	// V6 applies the rule to IPv6 instead of IPv4.
	V6 bool
	// UseRefusing diverts to the ISP's refusing resolver instead of its
	// normal one — producing the "status modified" responses of §4.1.2.
	UseRefusing bool
	// Replicate also forwards the original query.
	Replicate bool
}

// MiddleboxSpec configures interception on one access segment.
type MiddleboxSpec struct {
	Rules []MiddleboxRule
	// InterceptBogons adds an implicit final rule that diverts
	// bogon-addressed port-53 queries to the ISP resolver — the
	// resolve-anything behaviour that lets the technique localize the
	// interceptor (§3.3). When false the middlebox ignores unroutable
	// destinations, the border drops them, and the probe can only
	// conclude "unknown".
	InterceptBogons bool
	// Encrypted is the segment's policy for DoT/DoH streams crossing
	// it: pass, block (forcing opportunistic clients down to port 53,
	// where Rules apply), or terminate at the ISP's own stream endpoint
	// behind an untrusted certificate.
	Encrypted dnsserver.EncryptedPolicy
}

// Config describes one ISP.
type Config struct {
	ASN     int
	Name    string
	Country string
	Region  publicdns.Region

	// PrefixV4 is the ISP's customer+infrastructure space (a /12 or
	// wider in practice; any size that fits the homes works here).
	PrefixV4 netip.Prefix
	// PrefixV6 is the ISP's v6 allocation, carved into /64s per home.
	PrefixV6 netip.Prefix

	// ResolverPersona fingerprints the ISP resolver.
	ResolverPersona dnsserver.ChaosPersona
	// RootHints seed the ISP resolver's iteration.
	RootHints []netip.Addr

	// Overflow supplies an extra v4 /16 (and v6 /48) once the primary
	// prefix's 255 segment slices are used up — large scaled worlds
	// outgrow a single /16. block counts up from 1 and each block hosts
	// the next 256 segments; the callback must be pure (same block, same
	// prefixes) and is also the hook for routing the new block into
	// whatever transit carries the primary prefixes. Without it,
	// exhausting the primary prefix panics.
	Overflow func(block int) (v4, v6 netip.Prefix)
}

// Network is a built ISP.
type Network struct {
	Config Config

	Border *netsim.Router

	// Resolver is the ISP's recursive resolver (the alternate resolver
	// interceptors divert to).
	Resolver      *dnsserver.RecursiveResolver
	ResolverRtr   *netsim.Router
	ResolverAddr  netip.Addr
	ResolverAddr6 netip.Addr // zero when the ISP has no v6 allocation

	// Refusing is a second resolver that answers everything with
	// REFUSED; middlebox rules may target it.
	Refusing      *dnsserver.RecursiveResolver
	RefusingAddr  netip.Addr
	RefusingAddr6 netip.Addr

	segments []*Segment
}

// Segment is one access aggregation segment. CPE default-route to it;
// a segment with a middlebox intercepts its subscribers.
type Segment struct {
	Index     int
	Router    *netsim.Router
	Middlebox *MiddleboxSpec
	// PrefixV4 is the slice of ISP space this segment's homes use.
	PrefixV4 netip.Prefix
	PrefixV6 netip.Prefix
	homes    int
}

// Build creates the ISP's fixed infrastructure and attaches it to the
// uplink (regional transit) device.
func Build(cfg Config, uplink netsim.Device) *Network {
	n := &Network{Config: cfg}

	n.Border = netsim.NewRouter(fmt.Sprintf("as%d-border", cfg.ASN))
	n.Border.Delay = 2 * time.Millisecond
	n.Border.RouterID = hostInPrefix4(cfg.PrefixV4, 0, 254)
	// Egress: everything not in the ISP goes upstream, except bogons,
	// which have no route on the public Internet.
	n.Border.AddDefaultRouteFiltered(uplink, func(pkt netsim.Packet) (bool, string) {
		if bogon.Is(pkt.Dst.Addr()) {
			return true, "bogon destination has no route beyond the AS"
		}
		return false, ""
	})

	// Resolver infrastructure lives in the first /24 of ISP space.
	n.ResolverAddr = hostInPrefix4(cfg.PrefixV4, 0, 53)
	n.RefusingAddr = hostInPrefix4(cfg.PrefixV4, 0, 54)
	n.ResolverRtr = netsim.NewRouter(
		fmt.Sprintf("as%d-resolver", cfg.ASN), n.ResolverAddr, n.RefusingAddr)

	n.Resolver = dnsserver.NewRecursiveResolver(n.ResolverAddr, cfg.RootHints...)
	n.Resolver.Persona = cfg.ResolverPersona
	n.ResolverRtr.BindOn(n.ResolverAddr, 53, n.Resolver)

	n.Refusing = dnsserver.NewRecursiveResolver(n.RefusingAddr, cfg.RootHints...)
	n.Refusing.Persona = cfg.ResolverPersona
	n.Refusing.RefuseAll = dnswire.RCodeRefused
	n.ResolverRtr.BindOn(n.RefusingAddr, 53, n.Refusing)

	if cfg.PrefixV6.IsValid() {
		infra6 := slice56(cfg.PrefixV6, 0)
		n.ResolverAddr6 = hostInPrefix6(infra6, 0x53)
		n.RefusingAddr6 = hostInPrefix6(infra6, 0x54)
		n.ResolverRtr.AddAddr(n.ResolverAddr6)
		n.ResolverRtr.AddAddr(n.RefusingAddr6)
		n.ResolverRtr.BindOn(n.ResolverAddr6, 53, n.Resolver)
		n.ResolverRtr.BindOn(n.RefusingAddr6, 53, n.Refusing)
		n.Border.AddRoute(infra6, n.ResolverRtr)
	}

	// Stream endpoint for terminate-policy middleboxes: sessions DNATed
	// here are answered by the ISP resolver behind a certificate that
	// names the resolver but verifies for nobody.
	n.ResolverRtr.BindOn(n.ResolverAddr, netsim.PortDoT, &dnsserver.StreamEndpoint{
		Cert:  netsim.StreamCert{Subject: n.ResolverAddr},
		Inner: n.Resolver,
	})

	n.ResolverRtr.AddDefaultRoute(n.Border)
	n.Border.AddRoute(slice24(cfg.PrefixV4, 0), n.ResolverRtr)
	return n
}

// hostInPrefix6 returns a host address within a v6 prefix.
func hostInPrefix6(p netip.Prefix, host byte) netip.Addr {
	a := p.Addr().As16()
	a[15] = host
	return netip.AddrFrom16(a)
}

// ResolverAddrPort returns the ISP resolver endpoint CPE forwarders use.
func (n *Network) ResolverAddrPort() netip.AddrPort {
	return netip.AddrPortFrom(n.ResolverAddr, 53)
}

// AddSegment creates the next access segment, optionally with a
// middlebox, and keeps it in Segments.
func (n *Network) AddSegment(mb *MiddleboxSpec) *Segment {
	seg := n.BindSegment(new(Segment), len(n.segments)+1, mb)
	n.segments = append(n.segments, seg)
	return seg
}

// segmentPrefixes is access segment idx's slice of the ISP's space.
// Index 0 is resolver infrastructure; segments count from 1.
func (n *Network) segmentPrefixes(idx int) (v4, v6 netip.Prefix) {
	v4base, v6base, off := n.Config.PrefixV4, n.Config.PrefixV6, idx
	if idx > 255 {
		if n.Config.Overflow == nil {
			panic(fmt.Sprintf("isp: as%d exhausted %s at segment %d and has no Overflow allocator",
				n.Config.ASN, n.Config.PrefixV4, idx))
		}
		v4base, v6base = n.Config.Overflow(idx / 256)
		off = idx % 256 // overflow blocks have no infrastructure slice, so 0 is usable
	}
	return slice24(v4base, off), slice56(v6base, off)
}

// HomeAt returns the addressing of home number home (from 1) on access
// segment idx: the home the segment's home-th AllocHome hands out. It
// needs no built segment and records nothing. withV6 gives the home a
// routed /64.
func (n *Network) HomeAt(idx, home int, withV6 bool) HomeAddrs {
	v4, v6 := n.segmentPrefixes(idx)
	h := HomeAddrs{WANv4: hostInPrefix4(v4, 0, home), LANPrefix4: homeLAN4}
	if withV6 && v6.IsValid() {
		h.LANPrefix6 = slice64(v6, home)
		// The CPE's notional WAN v6 is the /64's base address; hosts and
		// the CPE LAN address are offsets above it.
		h.WANv6 = h.LANPrefix6.Addr()
	}
	return h
}

// BindSegment makes seg access segment idx — the segment the idx-th
// AddSegment makes, with the same prefixes and device names — and
// routes its prefixes to it at the border. seg is a slot: a new
// Segment, or one released with ReleaseSegment (by this network or
// another), whose router and NAT storage are reused the way
// cpe.Device.Rebind reuses a home's. The segment is not kept in
// Segments.
func (n *Network) BindSegment(seg *Segment, idx int, mb *MiddleboxSpec) *Segment {
	v4, v6 := n.segmentPrefixes(idx)
	r := seg.Router
	var nat *netsim.NAT
	if r == nil {
		r = new(netsim.Router)
	} else {
		nat = r.NAT
	}
	r.Reset(fmt.Sprintf("as%d-seg%d", n.Config.ASN, idx))
	*seg = Segment{Index: idx, Router: r, Middlebox: mb, PrefixV4: v4, PrefixV6: v6}
	seg.Router.Delay = time.Millisecond
	seg.Router.RouterID = hostInPrefix4(seg.PrefixV4, 0, 254)
	seg.Router.AddDefaultRoute(n.Border)
	n.Border.AddRoute(seg.PrefixV4, seg.Router)
	if seg.PrefixV6.IsValid() {
		n.Border.AddRoute(seg.PrefixV6, seg.Router)
	}
	if mb != nil {
		if nat == nil {
			nat = new(netsim.NAT)
		}
		nat.Reset()
		seg.Router.NAT = nat
		for i, rule := range mb.Rules {
			seg.Router.NAT.AddDNAT(n.dnatRule(seg, i, rule))
		}
		switch mb.Encrypted {
		case dnsserver.EncBlock:
			seg.Router.AddInputFilter(func(pkt netsim.Packet) (bool, string) {
				if encryptedDNS(pkt) {
					return true, "middlebox blocks encrypted DNS"
				}
				return false, ""
			})
		case dnsserver.EncTerminate:
			seg.Router.NAT.AddDNAT(netsim.DNATRule{
				Name: fmt.Sprintf("as%d-seg%d-enc-terminate", n.Config.ASN, seg.Index),
				Match: func(pkt netsim.Packet) bool {
					return encryptedDNS(pkt) && pkt.Dst.Addr() != n.ResolverAddr
				},
				To: netip.AddrPortFrom(n.ResolverAddr, netsim.PortDoT),
			})
		}
		if mb.InterceptBogons {
			seg.Router.NAT.AddDNAT(netsim.DNATRule{
				Name: fmt.Sprintf("as%d-seg%d-bogons", n.Config.ASN, seg.Index),
				Match: func(pkt netsim.Packet) bool {
					return pkt.Proto == netsim.UDP && pkt.Dst.Port() == 53 &&
						!pkt.IsIPv6() && bogon.Is(pkt.Dst.Addr())
				},
				To: netip.AddrPortFrom(n.ResolverAddr, 53),
			})
		}
	}
	return seg
}

// ReleaseSegment undoes BindSegment: the border stops routing the
// segment's prefixes, so nothing in the ISP refers to it any more.
func (n *Network) ReleaseSegment(seg *Segment) {
	n.Border.RemoveRoute(seg.PrefixV4)
	if seg.PrefixV6.IsValid() {
		n.Border.RemoveRoute(seg.PrefixV6)
	}
}

// encryptedDNS matches DoT/DoH stream traffic.
func encryptedDNS(pkt netsim.Packet) bool {
	if pkt.Proto != netsim.TCP {
		return false
	}
	p := pkt.Dst.Port()
	return p == netsim.PortDoT || p == netsim.PortDoH
}

// dnatRule compiles a MiddleboxRule to a netsim DNAT rule. Regular rules
// never match bogon destinations — the implicit InterceptBogons rule
// handles those.
func (n *Network) dnatRule(seg *Segment, idx int, rule MiddleboxRule) netsim.DNATRule {
	to := n.ResolverAddr
	if rule.UseRefusing {
		to = n.RefusingAddr
	}
	if rule.V6 {
		to = n.ResolverAddr6
		if rule.UseRefusing {
			to = n.RefusingAddr6
		}
		if !to.IsValid() {
			panic(fmt.Sprintf("isp: as%d has a v6 middlebox rule but no v6 allocation", n.Config.ASN))
		}
	}
	match := func(pkt netsim.Packet) bool {
		if pkt.Proto != netsim.UDP || pkt.Dst.Port() != 53 {
			return false
		}
		if pkt.IsIPv6() != rule.V6 {
			return false
		}
		dst := pkt.Dst.Addr()
		if dst == n.ResolverAddr || dst == n.RefusingAddr ||
			dst == n.ResolverAddr6 || dst == n.RefusingAddr6 {
			return false // queries already bound for the ISP resolver
		}
		if bogon.Is(dst) {
			return false
		}
		return rule.All || slices.Contains(rule.Targets, dst)
	}
	return netsim.DNATRule{
		Name:      fmt.Sprintf("as%d-seg%d-mb%d", n.Config.ASN, seg.Index, idx),
		Match:     match,
		To:        netip.AddrPortFrom(to, 53),
		Replicate: rule.Replicate,
	}
}

// homeLAN4 is every home's IPv4 LAN.
var homeLAN4 = netip.MustParsePrefix("192.168.1.0/24")

// HomeAddrs are the addresses allocated to one subscriber home.
type HomeAddrs struct {
	WANv4      netip.Addr
	LANPrefix4 netip.Prefix
	// V6 fields are zero for v4-only homes.
	WANv6      netip.Addr
	LANPrefix6 netip.Prefix
}

// AllocHome hands out addressing for the next home on a segment.
// withV6 gives the home a routed /64.
func (n *Network) AllocHome(seg *Segment, withV6 bool) HomeAddrs {
	seg.homes++
	return n.HomeAt(seg.Index, seg.homes, withV6)
}

// AttachCPE wires a built CPE to a segment.
func (n *Network) AttachCPE(seg *Segment, d *cpe.Device, home HomeAddrs) {
	seg.Router.AddRoute(netip.PrefixFrom(home.WANv4, 32), d.Router)
	if home.LANPrefix6.IsValid() {
		seg.Router.AddRoute(home.LANPrefix6, d.Router)
	}
	d.SetUplink(seg.Router)
}

// DetachCPE undoes AttachCPE: the segment stops routing the home's
// addresses, so nothing in the ISP refers to the device any more. The
// home's address allocation stays burned; re-attaching a device with
// the same HomeAddrs restores the home exactly.
func (n *Network) DetachCPE(seg *Segment, home HomeAddrs) {
	seg.Router.RemoveRoute(netip.PrefixFrom(home.WANv4, 32))
	if home.LANPrefix6.IsValid() {
		seg.Router.RemoveRoute(home.LANPrefix6)
	}
}

// Segments returns the ISP's segments.
func (n *Network) Segments() []*Segment { return n.segments }

// hostInPrefix4 returns host number host (1..254) of the i-th /24 in
// the ISP's /16.
func hostInPrefix4(p netip.Prefix, i, host int) netip.Addr {
	if host < 0 || host > 254 {
		panic(fmt.Sprintf("isp: host index %d out of range for a /24", host))
	}
	a := slice24(p, i).Addr().As4()
	a[3] = byte(host)
	return netip.AddrFrom4(a)
}

// slice24 returns the i-th /24 at or after p (p itself when i is 0).
func slice24(p netip.Prefix, i int) netip.Prefix {
	if i < 0 || i > 255 {
		panic(fmt.Sprintf("isp: /24 slice index %d out of range", i))
	}
	a := p.Addr().As4()
	a[2] += byte(i)
	a[3] = 0
	return netip.PrefixFrom(netip.AddrFrom4(a), 24)
}

// slice56 returns the i-th /56 inside the ISP's /48 (or the zero Prefix
// when the ISP has no v6 allocation).
func slice56(p netip.Prefix, i int) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	if i < 0 || i > 255 {
		panic(fmt.Sprintf("isp: /56 slice index %d out of range for a /48", i))
	}
	a := p.Addr().As16()
	a[6] += byte(i)
	a[7] = 0
	return netip.PrefixFrom(netip.AddrFrom16(a), 56).Masked()
}

// slice64 returns the i-th /64 inside a segment's /56.
func slice64(p netip.Prefix, i int) netip.Prefix {
	if i < 0 || i > 255 {
		panic(fmt.Sprintf("isp: /64 slice index %d out of range for a /56", i))
	}
	a := p.Addr().As16()
	a[7] += byte(i)
	return netip.PrefixFrom(netip.AddrFrom16(a), 64).Masked()
}
