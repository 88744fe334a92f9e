// Package homelab builds single-home laboratory worlds: one simulated
// Internet (backbone + public resolvers), one ISP, one CPE, one probe
// host — with the interception behaviour of a named scenario, a canned
// isp.Seat compiled the way the pilot study compiles its seats.
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

// canned is a scenario's home: the CPE's device name, the seat the
// home compiles from on the lab ISP, and the verdict the detector
// should reach.
type canned struct {
	cpe     string
	seat    isp.Seat
	verdict core.Verdict
}

// scenarios are the canned seats. CPEChaosRelay's verdict is the
// documented §6 misclassification: the CPE relays version.bind to the
// same alternate resolver the middlebox diverts to, so the strings
// match and the CPE is blamed.
var scenarios = map[Scenario]canned{
	Clean:               {"lab-cpe", isp.Seat{}, core.VerdictNotIntercepted},
	XB6:                 {"xb6-gateway", isp.Seat{Loc: isp.LocCPE, Persona: &dnsserver.PersonaDnsmasqOld}, core.VerdictCPE},
	PiHole:              {"lab-cpe", isp.Seat{Loc: isp.LocCPE, Persona: &dnsserver.PersonaPiHole}, core.VerdictCPE},
	OpenForwarder:       {"lab-cpe", isp.Seat{WANPort53Open: true}, core.VerdictNotIntercepted},
	ISPMiddlebox:        {"lab-cpe", isp.Seat{Loc: isp.LocISP}, core.VerdictISP},
	ISPMiddleboxNoBogon: {"lab-cpe", isp.Seat{Loc: isp.LocISPHidden}, core.VerdictUnknown},
	ISPRefusing:         {"lab-cpe", isp.Seat{Loc: isp.LocISP, Refuse: isp.RefuseAll}, core.VerdictISP},
	ISPMixed:            {"lab-cpe", isp.Seat{Loc: isp.LocISP, Refuse: isp.RefuseSubset}, core.VerdictISP},
	BeyondISP:           {"lab-cpe", isp.Seat{Loc: isp.LocTransit}, core.VerdictUnknown},
	CPESelective:        {"lab-cpe", isp.Seat{Loc: isp.LocCPE, PatternV4: []publicdns.ID{publicdns.Google}}, core.VerdictCPE},
	CPEChaosRelay: {"lab-cpe", isp.Seat{Loc: isp.LocISPHidden, Persona: &dnsserver.PersonaSilent,
		WANPort53Open: true, ForwardUnhandledChaos: true}, core.VerdictCPE},
	Replicating: {"lab-cpe", isp.Seat{Loc: isp.LocISP, Replicate: true}, core.VerdictISP},
}

// lookup returns a scenario's canned home, panicking on an unknown
// scenario.
func lookup(s Scenario) canned {
	c, ok := scenarios[s]
	if !ok {
		panic(fmt.Sprintf("homelab: unknown scenario %q", s))
	}
	return c
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

// New builds a scenario world: one dual-stack home on a Comcast-like
// ISP in region NA, compiled from the scenario's seat.
func New(scenario Scenario) *Lab {
	c := lookup(scenario)
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
	l.Home = l.ISP.AllocHome(l.ISP.AddSegment(c.seat.Middlebox(dnsserver.EncPass)), true)
	l.attach(c.seat.CPE(c.cpe, l.ISP, l.Home, dnsserver.EncPass, nil), "probe")
	if c.seat.Loc == isp.LocTransit {
		// The lab diverts the home whole, not only its queries to the
		// four operators, so a routable but unowned canary is answered
		// beyond the AS — the reason step 3 needs a bogon.
		t := l.Backbone.AddTransit(publicdns.RegionNA, dnsserver.EncPass)
		t.Resolver.Persona = dnsserver.PersonaPowerDNS
		t.DivertAll(l.Home.WANv4)
	}
	return l
}

// attach builds the home's CPE from cfg, wires it to the lab's one
// segment and puts the probe, named probe, behind it.
func (l *Lab) attach(cfg cpe.Config, probe string) {
	l.CPE = cpe.Build(cfg)
	l.ISP.AttachCPE(l.ISP.Segments()[0], l.CPE, l.Home)
	l.Probe = l.CPE.AttachHost(probe, 0)
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

// ExpectedVerdict documents what the detector should conclude for each
// scenario — used by tests and the quickstart example.
func ExpectedVerdict(s Scenario) core.Verdict { return lookup(s).verdict }
