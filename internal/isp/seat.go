package isp

import (
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Location is where a seat's interceptor sits (§3, Figure 2).
type Location string

// Seat locations.
const (
	// LocCPE: the home's own CPE intercepts.
	LocCPE Location = "cpe"
	// LocISP: an in-AS middlebox intercepts, including bogon-addressed
	// queries, so step 3 localizes it.
	LocISP Location = "isp"
	// LocISPHidden: an in-AS middlebox that ignores bogon destinations;
	// the technique can only say "unknown".
	LocISPHidden Location = "isp-hidden"
	// LocTransit: an interceptor beyond the AS.
	LocTransit Location = "transit"
)

// Refusal describes whether the alternate resolver blocks queries.
type Refusal string

// Refusal modes.
const (
	// RefuseNone: the alternate resolver resolves everything (the
	// interception is fully transparent).
	RefuseNone Refusal = ""
	// RefuseAll: every intercepted resolver's queries are REFUSED
	// ("status modified" in Figure 3).
	RefuseAll Refusal = "all"
	// RefuseSubset: Quad9 and OpenDNS queries are REFUSED, the others
	// resolve ("both" in Figure 3). Only meaningful for all-four seats.
	RefuseSubset Refusal = "subset"
)

// Seat is one home's interception assignment: where the interceptor
// sits and what it diverts. It compiles to the home's CPE config (CPE)
// and its access segment's middlebox (Middlebox); a transit seat's home
// is diverted by its region's transit interceptor instead, keyed on the
// home's WAN address. The zero Seat, like a nil *Seat, is a clean home
// behind a well-behaved router.
type Seat struct {
	Loc Location
	// PatternV4 is the intercepted v4 operator set; nil means all four
	// (unless V4None is set).
	PatternV4 []publicdns.ID
	// V4None marks a v6-only seat: no IPv4 interception at all.
	V4None bool
	// PatternV6 is the intercepted v6 operator set; nil means none.
	PatternV6 []publicdns.ID
	Refuse    Refusal
	// Replicate makes the middlebox forward the original query too
	// (query replication) instead of only diverting it.
	Replicate bool

	// Persona is the CPE forwarder's CHAOS fingerprint (Table 5
	// strings); nil is dnsserver.PersonaDnsmasq.
	Persona *dnsserver.ChaosPersona
	// WANPort53Open leaves the CPE forwarder reachable on the home's WAN
	// address (an "open forwarder", Appendix A's confounder).
	WANPort53Open bool
	// ForwardUnhandledChaos makes the CPE forwarder relay debugging
	// queries its persona does not answer upstream — §6's
	// misclassification configuration.
	ForwardUnhandledChaos bool
}

// CPE compiles the seat into the config of its home's router, named
// name, forwarding to n's resolver and addressed from home (dual-stack
// when home has a v6 /64). An intercepting CPE seat DNATs its pattern's
// port-53 traffic to its own forwarder, evades fingerprinting with adv
// and applies enc to the home's encrypted DNS; every other CPE passes
// encrypted DNS through untouched.
func (s *Seat) CPE(name string, n *Network, home HomeAddrs, enc dnsserver.EncryptedPolicy, adv *dnsserver.Adversary) cpe.Config {
	cfg := cpe.NewPlain(name, home.LANPrefix4, home.WANv4, n.ResolverAddrPort())
	v6 := home.LANPrefix6.IsValid()
	if v6 {
		cfg.LANAddr6 = hostInPrefix6(home.LANPrefix6, 1)
		cfg.LANPrefix6 = home.LANPrefix6
		cfg.WANAddr6 = home.WANv6
	}
	if s == nil {
		return cfg
	}
	if s.Persona != nil {
		cfg.Persona = *s.Persona
	}
	cfg.WANPort53Open = s.WANPort53Open
	cfg.ForwardUnhandledChaos = s.ForwardUnhandledChaos
	if s.Loc != LocCPE {
		return cfg
	}
	cfg.Adversary = adv
	cfg.Encrypted = enc
	if s.PatternV4 == nil {
		cfg.Intercept.AllV4 = true
	} else {
		cfg.Intercept.TargetsV4 = addrsV4(s.PatternV4)
		// The selective DNAT rule does not catch queries to the CPE's
		// own address, so the §3.2 test only works because the
		// forwarder itself answers on the public IP — the usual
		// configuration of such devices.
		cfg.WANPort53Open = true
	}
	if v6 {
		cfg.Intercept.TargetsV6 = addrsV6(s.PatternV6)
	}
	return cfg
}

// Middlebox compiles the seat into the middlebox of its home's access
// segment, with enc as the segment's encrypted-DNS policy. Only in-AS
// seats have one; every other seat's segment is clean (nil).
func (s *Seat) Middlebox(enc dnsserver.EncryptedPolicy) *MiddleboxSpec {
	if s == nil || (s.Loc != LocISP && s.Loc != LocISPHidden) {
		return nil
	}
	mb := &MiddleboxSpec{InterceptBogons: s.Loc == LocISP, Encrypted: enc}
	if !s.V4None {
		switch {
		case s.Refuse == RefuseSubset:
			mb.Rules = append(mb.Rules,
				MiddleboxRule{Targets: addrsV4([]publicdns.ID{publicdns.Quad9, publicdns.OpenDNS}), UseRefusing: true},
				MiddleboxRule{All: true})
		case s.PatternV4 == nil:
			mb.Rules = append(mb.Rules, MiddleboxRule{All: true, UseRefusing: s.Refuse == RefuseAll})
		default:
			mb.Rules = append(mb.Rules, MiddleboxRule{Targets: addrsV4(s.PatternV4), UseRefusing: s.Refuse == RefuseAll})
		}
	}
	if len(s.PatternV6) > 0 {
		mb.Rules = append(mb.Rules, MiddleboxRule{Targets: addrsV6(s.PatternV6), V6: true})
	}
	for i := range mb.Rules {
		mb.Rules[i].Replicate = s.Replicate
	}
	return mb
}

// addrsV4 collects the v4 service addresses of an operator set.
func addrsV4(ids []publicdns.ID) []netip.Addr {
	var out []netip.Addr
	for _, id := range ids {
		out = append(out, publicdns.Lookup(id).V4...)
	}
	return out
}

// addrsV6 collects the v6 service addresses of an operator set.
func addrsV6(ids []publicdns.ID) []netip.Addr {
	var out []netip.Addr
	for _, id := range ids {
		out = append(out, publicdns.Lookup(id).V6...)
	}
	return out
}
