// Package backbone assembles the global part of the simulated Internet:
// a core router, regional transit routers, the DNS delegation tree
// (root, com TLD, and the authoritative zones the study depends on),
// and the anycast deployments of the four public resolver operators.
// ISPs attach to their regional transit; everything else is already
// wired when Build returns.
package backbone

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnssec"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Well-known infrastructure addresses.
var (
	// RootAddr is the (single) root nameserver.
	RootAddr = netip.MustParseAddr("198.41.0.4")
	// ComTLDAddr is the com gTLD server.
	ComTLDAddr = netip.MustParseAddr("192.5.6.30")

	akamaiAuthAddr  = netip.MustParseAddr("45.33.1.2")
	googleAuthAddr  = netip.MustParseAddr("45.33.2.2")
	opendnsAuthAddr = netip.MustParseAddr("45.33.3.2")
	canaryAuthAddr  = netip.MustParseAddr("45.33.4.2")
)

// Backbone is the built global topology.
type Backbone struct {
	Net  *netsim.Network
	Core *netsim.Router

	// Regional transit routers, one per region.
	Regional map[publicdns.Region]*netsim.Router

	// Sites indexes each operator's anycast sites by region.
	Sites map[publicdns.ID]map[publicdns.Region]publicdns.Site

	// Resolvers holds the site resolver engines, for tests and
	// cache-flushing between experiment phases.
	Resolvers map[publicdns.ID]map[publicdns.Region]*dnsserver.RecursiveResolver

	// TrustAnchor is the signed root zone's DNSKEY — what a validating
	// stub configures, like the real root anchor in a trust-anchor file.
	TrustAnchor dnswire.DNSKEYRData
}

// ZoneData is the immutable DNS content of the backbone: the signed
// delegation chain and the operators' authoritative zones. Building it
// costs three key generations and three zone signings — by far the most
// expensive part of a backbone build — and the result is never mutated
// after construction (zones are read-only once signed; the dynamic echo
// names are stateless closures), so one ZoneData can safely back every
// shard world of a sharded run.
type ZoneData struct {
	Root, Com, Canary       *dnsserver.Zone
	Akamai, Google, OpenDNS *dnsserver.Zone
	TrustAnchor             dnswire.DNSKEYRData
}

// BuildZones constructs and signs the backbone's zone content.
func BuildZones() *ZoneData {
	rootKey := dnssec.GenerateKey("", "backbone-root")
	comKey := dnssec.GenerateKey("com", "backbone-com")
	canaryKey := dnssec.GenerateKey("dnsloc.com", "backbone-canary")

	rootZone := dnsserver.NewZone("")
	rootZone.Delegate("com", map[dnswire.Name][]netip.Addr{
		"a.gtld-servers.net": {ComTLDAddr},
	})
	rootZone.MustAdd(comKey.DSRecord(86400))

	comZone := dnsserver.NewZone("com")
	comZone.Delegate("akamai.com", map[dnswire.Name][]netip.Addr{
		"ns1.akamai.com": {akamaiAuthAddr},
	})
	comZone.Delegate("google.com", map[dnswire.Name][]netip.Addr{
		"ns1.google.com": {googleAuthAddr},
	})
	comZone.Delegate("opendns.com", map[dnswire.Name][]netip.Addr{
		"ns1.opendns.com": {opendnsAuthAddr},
	})
	comZone.Delegate("dnsloc.com", map[dnswire.Name][]netip.Addr{
		"ns1.dnsloc.com": {canaryAuthAddr},
	})
	comZone.MustAdd(canaryKey.DSRecord(86400))

	canaryZone := publicdns.CanaryZone()
	for _, sign := range []struct {
		zone *dnsserver.Zone
		key  *dnssec.Key
	}{{rootZone, rootKey}, {comZone, comKey}, {canaryZone, canaryKey}} {
		if err := sign.zone.Sign(sign.key); err != nil {
			panic(err)
		}
	}
	return &ZoneData{
		Root: rootZone, Com: comZone, Canary: canaryZone,
		Akamai: publicdns.AkamaiZone(), Google: publicdns.GoogleAuthZone(), OpenDNS: publicdns.OpenDNSAuthZone(),
		TrustAnchor: rootKey.Public,
	}
}

// Build constructs the backbone on the given network, generating fresh
// zone data.
func Build(net *netsim.Network) *Backbone {
	return BuildWith(net, BuildZones())
}

// BuildWith constructs the backbone around pre-built zone data. The
// zones are referenced, not copied: callers that share one ZoneData
// across concurrently running networks rely on zones being immutable
// after Sign.
func BuildWith(net *netsim.Network, zones *ZoneData) *Backbone {
	return BuildWithCores(net, zones, nil, netsim.CorePlain)
}

// BuildWithCores is BuildWith for worlds stamped out of a shared
// template: the core and regional transit routers — whose forwarding
// tables are identical in every shard world — attach to the
// CoreSet so only the first build pays for the table maps (see
// netsim.RoutingCore). cores may be nil (no sharing).
func BuildWithCores(net *netsim.Network, zones *ZoneData, cores *netsim.CoreSet, role netsim.CoreRole) *Backbone {
	b := &Backbone{
		Net:       net,
		Core:      netsim.NewRouter("core"),
		Regional:  make(map[publicdns.Region]*netsim.Router),
		Sites:     make(map[publicdns.ID]map[publicdns.Region]publicdns.Site),
		Resolvers: make(map[publicdns.ID]map[publicdns.Region]*dnsserver.RecursiveResolver),
	}
	share := func(r *netsim.Router) {
		if cores != nil && role != netsim.CorePlain {
			r.ShareCore(cores.For(r.Name), role == netsim.CoreRecorder)
		}
	}
	// Link delays grade by tier so virtual round-trip times behave like
	// real ones: backbone links are slow, regional links faster.
	b.Core.Delay = 10 * time.Millisecond
	b.Core.RouterID = netip.MustParseAddr("100.65.255.1") // CGN-space router ID
	share(b.Core)
	for i, region := range publicdns.Regions {
		rt := netsim.NewRouter("transit-" + string(region))
		rt.Delay = 5 * time.Millisecond
		rt.RouterID = netip.AddrFrom4([4]byte{100, 65, byte(i + 1), 1})
		share(rt)
		rt.AddDefaultRoute(b.Core)
		b.Regional[region] = rt
	}
	b.buildDNSTree(zones)
	b.buildOperators()
	return b
}

// attachCoreServer wires an authoritative server box to the core.
func (b *Backbone) attachCoreServer(name string, addr netip.Addr, srv netsim.Service) *netsim.Router {
	r := netsim.NewRouter(name, addr)
	r.Delay = 2 * time.Millisecond
	r.Bind(53, srv)
	r.AddDefaultRoute(b.Core)
	b.Core.AddRoute(netip.PrefixFrom(addr, 24).Masked(), r)
	return r
}

// buildDNSTree attaches the authoritative servers for the pre-built zone
// content: root, TLD, and leaf servers. The echo zones (akamai, google)
// stay unsigned, as their dynamic real-world counterparts are. Each world
// gets its own AuthServer instances, but the zones behind them are shared
// read-only.
func (b *Backbone) buildDNSTree(zones *ZoneData) {
	b.TrustAnchor = zones.TrustAnchor
	b.attachCoreServer("root-a", RootAddr, dnsserver.NewAuthServer(zones.Root))
	b.attachCoreServer("gtld-com", ComTLDAddr, dnsserver.NewAuthServer(zones.Com))
	b.attachCoreServer("auth-akamai", akamaiAuthAddr, dnsserver.NewAuthServer(zones.Akamai))
	b.attachCoreServer("auth-google", googleAuthAddr, dnsserver.NewAuthServer(zones.Google))
	b.attachCoreServer("auth-opendns", opendnsAuthAddr, dnsserver.NewAuthServer(zones.OpenDNS))
	b.attachCoreServer("auth-canary", canaryAuthAddr, dnsserver.NewAuthServer(zones.Canary))
}

// buildOperators deploys every operator's anycast sites: each region's
// transit routes the operator's service prefixes to the local site, so
// "which site answers" is decided by where the client attaches — anycast.
func (b *Backbone) buildOperators() {
	for _, id := range publicdns.All {
		cfg := publicdns.Lookup(id)
		b.Sites[id] = make(map[publicdns.Region]publicdns.Site)
		b.Resolvers[id] = make(map[publicdns.Region]*dnsserver.RecursiveResolver)
		for _, site := range publicdns.Sites(id) {
			router, res := site.Build(RootAddr)
			res.DNSSECAware = true // the big public resolvers all validate
			router.Delay = 2 * time.Millisecond
			regional := b.Regional[site.Region]
			router.AddDefaultRoute(regional)
			for _, p := range cfg.ServicePrefixes {
				regional.AddRoute(p, router)
				if site.Region == publicdns.RegionNA {
					// The core also needs a route for the anycast space for
					// core-attached clients; NA is its "nearest" site.
					b.Core.AddRoute(p, regional)
				}
			}
			// Egress space routes back to the site from anywhere.
			regional.AddRoute(site.EgressPrefixV4(), router)
			regional.AddRoute(site.EgressPrefixV6(), router)
			b.Core.AddRoute(site.EgressPrefixV4(), regional)
			b.Core.AddRoute(site.EgressPrefixV6(), regional)

			b.Sites[id][site.Region] = site
			b.Resolvers[id][site.Region] = res
		}
	}
}

// AttachISP builds an ISP and wires it to its region's transit.
func (b *Backbone) AttachISP(cfg isp.Config) *isp.Network {
	regional, ok := b.Regional[cfg.Region]
	if !ok {
		panic(fmt.Sprintf("backbone: unknown region %q", cfg.Region))
	}
	if len(cfg.RootHints) == 0 {
		cfg.RootHints = []netip.Addr{RootAddr}
	}
	n := isp.Build(cfg, regional)
	regional.AddRoute(cfg.PrefixV4, n.Border)
	b.Core.AddRoute(cfg.PrefixV4, regional)
	if cfg.PrefixV6.IsValid() {
		regional.AddRoute(cfg.PrefixV6, n.Border)
		b.Core.AddRoute(cfg.PrefixV6, regional)
	}
	return n
}
