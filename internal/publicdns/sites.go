package publicdns

import (
	"fmt"
	"net/netip"
	"strings"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// Region is a coarse geographic region used to pick the anycast site a
// client reaches.
type Region string

// Regions.
const (
	RegionNA Region = "NA"
	RegionEU Region = "EU"
	RegionAS Region = "AS"
	RegionOC Region = "OC"
	RegionSA Region = "SA"
	RegionAF Region = "AF"
)

// Regions lists all regions in deterministic order.
var Regions = []Region{RegionNA, RegionEU, RegionAS, RegionOC, RegionSA, RegionAF}

// regionCity maps each region to the airport code of its anycast site.
var regionCity = map[Region]string{
	RegionNA: "iad",
	RegionEU: "fra",
	RegionAS: "sin",
	RegionOC: "syd",
	RegionSA: "gru",
	RegionAF: "jnb",
}

// CityOf returns the airport code of a region's site.
func CityOf(r Region) string { return regionCity[r] }

// RegionForCountry maps a country code to its region. Unknown countries
// land in Europe, the platform's center of mass.
func RegionForCountry(cc string) Region {
	switch cc {
	case "US", "CA", "MX":
		return RegionNA
	case "JP", "IN", "ID", "TR", "RU", "CN", "KR", "SG":
		return RegionAS
	case "AU", "NZ":
		return RegionOC
	case "BR", "AR", "CL":
		return RegionSA
	case "ZA", "NG", "KE", "EG":
		return RegionAF
	default:
		return RegionEU
	}
}

// Site is one anycast point of presence of one operator.
type Site struct {
	Operator ID
	Region   Region
	City     string // lowercase airport code
	Index    int

	EgressV4 netip.Addr
	EgressV6 netip.Addr
}

// Sites enumerates an operator's deployment: one site per region.
func Sites(id ID) []Site {
	c := Lookup(id)
	out := make([]Site, 0, len(Regions))
	for i, r := range Regions {
		out = append(out, Site{
			Operator: id,
			Region:   r,
			City:     regionCity[r],
			Index:    i,
			EgressV4: egressV4(c, i),
			EgressV6: egressV6(c, i),
		})
	}
	return out
}

// egressV4 derives the site's v4 egress address: host .53 of the i-th
// /24 inside the operator's egress prefix.
func egressV4(c *Config, i int) netip.Addr {
	base := c.EgressPrefixV4.Addr().As4()
	base[2] += byte(i + 1) // stays inside any prefix of /21 or wider
	base[3] = 53
	return netip.AddrFrom4(base)
}

// egressV6 derives the site's v6 egress address.
func egressV6(c *Config, i int) netip.Addr {
	base := c.EgressPrefixV6.Addr().As16()
	base[7] += byte(i + 1)
	base[15] = 53
	return netip.AddrFrom16(base)
}

// EgressPrefixV4 returns the /24 the site's v4 egress lives in, for
// routing back to the site.
func (s Site) EgressPrefixV4() netip.Prefix {
	return netip.PrefixFrom(s.EgressV4, 24).Masked()
}

// EgressPrefixV6 returns the /64 the site's v6 egress lives in.
func (s Site) EgressPrefixV6() netip.Prefix {
	return netip.PrefixFrom(s.EgressV6, 64).Masked()
}

// persona builds the site's CHAOS persona: the answers Table 1 and §3.2
// document. Only Quad9 implements version.bind.
func (s Site) persona() dnsserver.ChaosPersona {
	switch s.Operator {
	case Cloudflare:
		return dnsserver.ChaosPersona{Identity: strings.ToUpper(s.City)}
	case Quad9:
		return dnsserver.ChaosPersona{
			Identity: fmt.Sprintf("res%d.%s.rrdns.pch.net", 100+s.Index, s.City),
			Version:  "Q9-P-7.5",
		}
	default:
		return dnsserver.ChaosPersona{}
	}
}

// hook builds the front-door special cases: Google's myaddr answer and
// OpenDNS's debug answer are synthesized by the resolver itself. The
// site-constant answer sets are built once, here, not per query;
// responses share them read-only.
func (s Site) hook() func(dnswire.View, netip.AddrPort) []string {
	switch s.Operator {
	case Google:
		egressV4, egressV6 := []string{s.EgressV4.String()}, []string{s.EgressV6.String()}
		return func(q dnswire.View, src netip.AddrPort) []string {
			if typ, _, _ := q.Question(); typ != dnswire.TypeTXT || !q.QuestionNameEqual("o-o.myaddr.l.google.com") {
				return nil
			}
			egress := egressV4
			if src.Addr().Is6() && !src.Addr().Is4In6() {
				egress = egressV6
			}
			// The real o-o.myaddr echoes a client-subnet option back as a
			// second TXT record (RFC 7871 diagnostics).
			if ecs, ok := q.ClientSubnet(); ok {
				return []string{egress[0], "edns0-client-subnet " + ecs.String()}
			}
			return egress
		}
	case OpenDNS:
		debug := []string{s.debugLine(), "flags 20 0 2F"}
		return func(q dnswire.View, src netip.AddrPort) []string {
			if typ, _, _ := q.Question(); typ != dnswire.TypeTXT || !q.QuestionNameEqual("debug.opendns.com") {
				return nil
			}
			return debug
		}
	default:
		return nil
	}
}

// debugLine is the first line of the site's OpenDNS debug answer, the
// one Table 1 shows.
func (s Site) debugLine() string { return fmt.Sprintf("server m%d.%s", 80+s.Index, s.City) }

// standardAnswers holds every site's standard answers, each keyed by
// itself: its CHAOS persona, its OpenDNS debug line and its egress
// addresses as text (Google's location answer and every operator's
// whoami answer). It is built once and only ever read.
var standardAnswers = func() map[string]string {
	m := map[string]string{}
	add := func(s string) {
		if s != "" {
			m[s] = s
		}
	}
	for _, id := range All {
		for _, s := range Sites(id) {
			p := s.persona()
			add(p.Identity)
			add(p.Version)
			if id == OpenDNS {
				add(s.debugLine())
			}
			add(s.EgressV4.String())
			add(s.EgressV6.String())
		}
	}
	return m
}()

// Intern returns b as a string. A standard answer comes back as the
// stored copy without allocating; only a non-standard one is copied.
func Intern(b []byte) string {
	if s, ok := standardAnswers[string(b)]; ok {
		return s
	}
	return string(b)
}

// InternString is Intern for an answer already held as a string: a
// standard answer is swapped for the stored copy.
func InternString(s string) string {
	if t, ok := standardAnswers[s]; ok {
		return t
	}
	return s
}

// Build creates the site's router and resolver service, wired but not
// yet attached to a topology: the caller routes the operator's service
// prefixes (anycast) and the site's egress prefixes to the returned
// router, and gives it a default route.
func (s Site) Build(rootHints ...netip.Addr) (*netsim.Router, *dnsserver.RecursiveResolver) {
	c := Lookup(s.Operator)
	name := fmt.Sprintf("%s-%s", c.ID, s.City)
	router := netsim.NewRouter(name)
	for _, a := range c.V4 {
		router.AddAddr(a)
	}
	for _, a := range c.V6 {
		router.AddAddr(a)
	}
	router.AddAddr(s.EgressV4)
	router.AddAddr(s.EgressV6)

	res := dnsserver.NewRecursiveResolver(s.EgressV4, rootHints...)
	res.Egress6 = s.EgressV6
	res.Persona = s.persona()
	res.Hook = s.hook()
	router.Bind(53, res)

	// The operator terminates DoT (853) and DoH (443) itself, with a
	// certificate that authenticates whichever anycast address the
	// client dialed — the real deployments all serve both.
	ep := &dnsserver.StreamEndpoint{
		Cert:        netsim.StreamCert{Trusted: true},
		SelfSubject: true,
		Inner:       res,
	}
	router.Bind(netsim.PortDoT, ep)
	router.Bind(netsim.PortDoH, ep)
	return router, res
}
