package backbone

import (
	"fmt"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Transit is one region's interceptor beyond every AS: a recursive
// resolver in the regional transit network and a DNAT rule on the
// regional router that diverts the v4 port-53 queries of the homes
// Divert or DivertAll registered. It keys on the home's WAN address,
// so no other traffic crossing the region — an ISP resolver's own
// recursion included — is touched.
type Transit struct {
	Resolver *dnsserver.RecursiveResolver
	// homes maps a diverted home's WAN address to the operators whose
	// v4 addresses it diverts (nil: every destination).
	homes map[netip.Addr][]publicdns.ID
}

// AddTransit plants region's transit interceptor. Its resolver answers
// at 64.86.i.53, i the region's index in publicdns.Regions, and enc is
// its policy for the diverted homes' DoT/DoH flows: blocked at the
// regional router or terminated at the resolver behind a certificate
// no client trusts. Callers set the resolver's Persona and Adversary.
func (b *Backbone) AddTransit(region publicdns.Region, enc dnsserver.EncryptedPolicy) *Transit {
	i := 0
	for i < len(publicdns.Regions) && publicdns.Regions[i] != region {
		i++
	}
	regional := b.Regional[region]
	if regional == nil {
		panic(fmt.Sprintf("backbone: unknown region %q", region))
	}
	addr := netip.AddrFrom4([4]byte{64, 86, byte(i), 53})
	t := &Transit{
		Resolver: dnsserver.NewRecursiveResolver(addr, RootAddr),
		homes:    make(map[netip.Addr][]publicdns.ID),
	}
	rtr := netsim.NewRouter(fmt.Sprintf("transit-resolver-%s", region), addr)
	rtr.Bind(53, t.Resolver)
	rtr.AddDefaultRoute(regional)
	prefix := netip.PrefixFrom(addr, 24).Masked()
	regional.AddRoute(prefix, rtr)
	b.Core.AddRoute(prefix, regional)

	regional.NAT = netsim.NewNAT()
	regional.NAT.AddDNAT(netsim.DNATRule{
		Name: fmt.Sprintf("transit-interceptor-%s", region),
		Match: func(pkt netsim.Packet) bool {
			return pkt.Proto == netsim.UDP && pkt.Dst.Port() == 53 && t.diverts(pkt)
		},
		To: netip.AddrPortFrom(addr, 53),
	})

	matchEnc := func(pkt netsim.Packet) bool {
		if pkt.Proto != netsim.TCP {
			return false
		}
		if p := pkt.Dst.Port(); p != netsim.PortDoT && p != netsim.PortDoH {
			return false
		}
		return t.diverts(pkt)
	}
	switch enc {
	case dnsserver.EncBlock:
		regional.AddInputFilter(func(pkt netsim.Packet) (bool, string) {
			if matchEnc(pkt) {
				return true, "transit interceptor blocks encrypted DNS"
			}
			return false, ""
		})
	case dnsserver.EncTerminate:
		rtr.BindOn(addr, netsim.PortDoT, &dnsserver.StreamEndpoint{
			Cert:  netsim.StreamCert{Subject: addr}, // untrusted
			Inner: t.Resolver,
		})
		regional.NAT.AddDNAT(netsim.DNATRule{
			Name:  fmt.Sprintf("transit-enc-terminate-%s", region),
			Match: matchEnc,
			To:    netip.AddrPortFrom(addr, netsim.PortDoT),
		})
	}
	return t
}

// Divert makes the interceptor take the home at wan's v4 queries to
// the operators in pattern (nil: all four).
func (t *Transit) Divert(wan netip.Addr, pattern []publicdns.ID) {
	if pattern == nil {
		pattern = publicdns.All
	}
	t.homes[wan] = pattern
}

// DivertAll makes the interceptor take every v4 query the home at wan
// sends across the region, whatever its destination: a routable but
// unowned canary is answered beyond the AS too.
func (t *Transit) DivertAll(wan netip.Addr) {
	t.homes[wan] = nil
}

// diverts reports whether a v4 packet comes from a diverted home and is
// bound for one of its pattern's operators, or for anywhere when the
// home is diverted whole.
func (t *Transit) diverts(pkt netsim.Packet) bool {
	if pkt.IsIPv6() {
		return false
	}
	pattern, ok := t.homes[pkt.Src.Addr()]
	if !ok {
		return false
	}
	if pattern == nil {
		return true
	}
	dst := pkt.Dst.Addr()
	for _, id := range pattern {
		for _, a := range publicdns.Lookup(id).V4 {
			if a == dst {
				return true
			}
		}
	}
	return false
}
