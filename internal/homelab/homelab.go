// Package homelab builds single-home laboratory worlds: one simulated
// Internet (backbone + public resolvers), one ISP, one CPE, one probe
// host — with the interception behaviour chosen by a named scenario.
// It is the workbench the examples, the detector tests, and the XB6
// case study all share.
package homelab

import (
	"fmt"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/backbone"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/ttlprobe"
)

// Scenario names a canned home configuration.
type Scenario string

// Scenarios.
const (
	// Clean: well-behaved CPE, no interception anywhere.
	Clean Scenario = "clean"
	// XB6: the §5 case study — an XB6 router DNATing all LAN v4 port-53
	// traffic to its forwarder and on to the ISP resolver.
	XB6 Scenario = "xb6"
	// PiHole: owner-intercepted DNS via a Pi-hole CPE.
	PiHole Scenario = "pihole"
	// OpenForwarder: no interception, but the CPE answers DNS on its
	// public address (Appendix A's confounder).
	OpenForwarder Scenario = "open-forwarder"
	// ISPMiddlebox: transparent interception by an in-AS middlebox that
	// also intercepts bogon-addressed queries.
	ISPMiddlebox Scenario = "isp-middlebox"
	// ISPMiddleboxNoBogon: in-AS middlebox that ignores bogon
	// destinations, so localization stops at "unknown".
	ISPMiddleboxNoBogon Scenario = "isp-middlebox-no-bogon"
	// ISPRefusing: in-AS middlebox diverting to a resolver that REFUSEs
	// everything — the "status modified" class of §4.1.2.
	ISPRefusing Scenario = "isp-refusing"
	// ISPMixed: two resolvers transparently intercepted, two refused —
	// the "both" class of Figure 3.
	ISPMixed Scenario = "isp-mixed"
	// BeyondISP: the interceptor sits in the transit network outside the
	// client's AS; bogon queries die at the AS border.
	BeyondISP Scenario = "beyond-isp"
	// CPESelective: CPE intercepts only Google's v4 addresses.
	CPESelective Scenario = "cpe-selective"
	// CPEChaosRelay: open-forwarder CPE that relays version.bind
	// upstream while an ISP middlebox intercepts — the §6
	// misclassification case.
	CPEChaosRelay Scenario = "cpe-chaos-relay"
	// Replicating: an in-AS middlebox that duplicates rather than
	// diverts queries (query replication).
	Replicating Scenario = "replicating"
)

// AllScenarios lists every scenario.
var AllScenarios = []Scenario{
	Clean, XB6, PiHole, OpenForwarder, ISPMiddlebox, ISPMiddleboxNoBogon,
	ISPRefusing, ISPMixed, BeyondISP, CPESelective, CPEChaosRelay, Replicating,
}

// Lab is a built scenario.
type Lab struct {
	Scenario Scenario
	Net      *netsim.Network
	Backbone *backbone.Backbone
	ISP      *isp.Network
	CPE      *cpe.Device
	Probe    *netsim.Host
	Home     isp.HomeAddrs
}

// New builds a scenario world.
func New(scenario Scenario) *Lab {
	l := &Lab{Scenario: scenario, Net: netsim.NewNetwork()}
	l.Net.EmitTimeExceeded = true // labs support traceroute
	l.Backbone = backbone.Build(l.Net)

	l.ISP = l.Backbone.AttachISP(isp.Config{
		ASN:             7922,
		Name:            "Comcast",
		Country:         "US",
		Region:          publicdns.RegionNA,
		PrefixV4:        netip.MustParsePrefix("96.120.0.0/16"),
		PrefixV6:        netip.MustParsePrefix("2601:db00::/48"),
		ResolverPersona: dnsserver.PersonaUnbound,
	})

	google := publicdns.Lookup(publicdns.Google)
	quad9 := publicdns.Lookup(publicdns.Quad9)
	opendns := publicdns.Lookup(publicdns.OpenDNS)

	var mb *isp.MiddleboxSpec
	switch scenario {
	case ISPMiddlebox:
		mb = &isp.MiddleboxSpec{
			Rules:           []isp.MiddleboxRule{{All: true}},
			InterceptBogons: true,
		}
	case ISPMiddleboxNoBogon, CPEChaosRelay:
		mb = &isp.MiddleboxSpec{Rules: []isp.MiddleboxRule{{All: true}}}
	case ISPRefusing:
		mb = &isp.MiddleboxSpec{
			Rules:           []isp.MiddleboxRule{{All: true, UseRefusing: true}},
			InterceptBogons: true,
		}
	case ISPMixed:
		// Quad9 and OpenDNS are blocked outright; everything else —
		// including Google, Cloudflare, and bogon-addressed queries —
		// is transparently diverted to the ISP resolver.
		mb = &isp.MiddleboxSpec{
			Rules: []isp.MiddleboxRule{
				{Targets: append(append([]netip.Addr{}, quad9.V4...), opendns.V4...), UseRefusing: true},
				{All: true},
			},
			InterceptBogons: true,
		}
	case Replicating:
		mb = &isp.MiddleboxSpec{
			Rules:           []isp.MiddleboxRule{{All: true, Replicate: true}},
			InterceptBogons: true,
		}
	}
	seg := l.ISP.AddSegment(mb)
	l.Home = l.ISP.AllocHome(seg, true)

	cfg := cpe.NewPlain("lab-cpe", l.Home.LANPrefix4, l.Home.WANv4, l.ISP.ResolverAddrPort())
	cfg.LANAddr6 = firstHost6(l.Home.LANPrefix6)
	cfg.LANPrefix6 = l.Home.LANPrefix6
	cfg.WANAddr6 = l.Home.WANv6

	switch scenario {
	case XB6:
		cfg.Name = "xb6-gateway"
		cfg.Persona = dnsserver.ChaosPersona{Version: "dnsmasq-2.78"}
		cfg.Intercept = cpe.InterceptSpec{AllV4: true}
	case PiHole:
		cfg.Persona = dnsserver.PersonaPiHole
		cfg.Intercept = cpe.InterceptSpec{AllV4: true}
	case OpenForwarder:
		cfg.WANPort53Open = true
	case CPESelective:
		cfg.Persona = dnsserver.PersonaDnsmasq
		cfg.Intercept = cpe.InterceptSpec{TargetsV4: google.V4}
		// The selective DNAT rule does not catch queries to the CPE's own
		// address, so the §3.2 test only works because dnsmasq itself
		// answers on the public IP — the usual configuration of such
		// devices.
		cfg.WANPort53Open = true
	case CPEChaosRelay:
		cfg.WANPort53Open = true
		cfg.Persona = dnsserver.PersonaSilent
		cfg.ForwardUnhandledChaos = true
	}
	l.CPE = cpe.Build(cfg)
	l.ISP.AttachCPE(seg, l.CPE, l.Home)
	l.Probe = l.CPE.AttachHost("probe", 0)

	if scenario == BeyondISP {
		l.installTransitInterceptor()
	}
	return l
}

// installTransitInterceptor plants a DNAT interceptor in the regional
// transit network, outside the client's AS, diverting port-53 flows to
// a transit-operated resolver.
func (l *Lab) installTransitInterceptor() {
	regional := l.Backbone.Regional[publicdns.RegionNA]
	resolverAddr := netip.MustParseAddr("64.86.0.53")
	rtr := netsim.NewRouter("transit-interceptor-resolver", resolverAddr)
	res := dnsserver.NewRecursiveResolver(resolverAddr, backbone.RootAddr)
	res.Persona = dnsserver.PersonaPowerDNS
	rtr.Bind(53, res)
	rtr.AddDefaultRoute(regional)
	regional.AddRoute(netip.MustParsePrefix("64.86.0.0/24"), rtr)
	l.Backbone.Core.AddRoute(netip.MustParsePrefix("64.86.0.0/24"), regional)

	regional.NAT = netsim.NewNAT()
	regional.NAT.AddDNAT(netsim.DNATRule{
		Name: "transit-interceptor",
		Match: func(pkt netsim.Packet) bool {
			return pkt.Proto == netsim.UDP && pkt.Dst.Port() == 53 &&
				!pkt.IsIPv6() && pkt.Dst.Addr() != resolverAddr &&
				// Only subscriber traffic from our lab ISP, so resolver
				// egress traffic is untouched.
				l.ISP.Config.PrefixV4.Contains(pkt.Src.Addr())
		},
		To: netip.AddrPortFrom(resolverAddr, 53),
	})
}

// Traceroute runs a DNS traceroute from the probe to Google's primary
// v4 address (§6's TTL extension).
func (l *Lab) Traceroute() (string, error) {
	c := &ttlprobe.SimTTLClient{Net: l.Net, Host: l.Probe}
	server := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	tr, err := ttlprobe.Traceroute(c, server, publicdns.CanaryDomain, 12)
	if err != nil {
		return "", err
	}
	return tr.String(), nil
}

// Client returns a detector transport for the lab probe.
func (l *Lab) Client() *core.SimClient {
	return &core.SimClient{Net: l.Net, Host: l.Probe}
}

// Detector returns a ready-to-run detector for the lab probe, configured
// with the probe's public (WAN) address the way the Atlas platform would
// supply it.
func (l *Lab) Detector() *core.Detector {
	return &core.Detector{
		Client:      l.Client(),
		CPEPublicV4: l.Home.WANv4,
		QueryV6:     true,
	}
}

// ReplaceCPE swaps the home's router for a well-behaved one, keeping
// the same addressing and ISP — the remediation §7 describes:
// "replacing these CPE devices sometimes suffices to prevent DNS
// interception." It returns a new probe host behind the new router.
func (l *Lab) ReplaceCPE() {
	cfg := cpe.NewPlain("replacement-cpe", l.Home.LANPrefix4, l.Home.WANv4, l.ISP.ResolverAddrPort())
	cfg.LANAddr6 = firstHost6(l.Home.LANPrefix6)
	cfg.LANPrefix6 = l.Home.LANPrefix6
	cfg.WANAddr6 = l.Home.WANv6
	l.CPE = cpe.Build(cfg)
	// Re-wire the segment routes: inserting the same prefixes replaces
	// the old next-hops, exactly like plugging a new router into the
	// same wall jack.
	seg := l.ISP.Segments()[0]
	l.ISP.AttachCPE(seg, l.CPE, l.Home)
	l.Probe = l.CPE.AttachHost("probe-after-swap", 0)
}

// firstHost6 returns the ::1 of a /64.
func firstHost6(p netip.Prefix) netip.Addr {
	a := p.Addr().As16()
	a[15] |= 1
	return netip.AddrFrom16(a)
}

// ExpectedVerdict documents what the detector should conclude for each
// scenario — used by tests and the quickstart example.
func ExpectedVerdict(s Scenario) core.Verdict {
	switch s {
	case Clean, OpenForwarder:
		return core.VerdictNotIntercepted
	case XB6, PiHole, CPESelective:
		return core.VerdictCPE
	case ISPMiddlebox, ISPRefusing, ISPMixed, Replicating:
		return core.VerdictISP
	case ISPMiddleboxNoBogon, BeyondISP:
		return core.VerdictUnknown
	case CPEChaosRelay:
		// The documented §6 misclassification: the CPE relays
		// version.bind to the same alternate resolver the middlebox
		// diverts to, so the strings match and the CPE is blamed.
		return core.VerdictCPE
	default:
		panic(fmt.Sprintf("homelab: unknown scenario %q", s))
	}
}
