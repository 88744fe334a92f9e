// Package publicdns models the four public resolver operators the paper
// probes — Cloudflare DNS, Google DNS, Quad9, and OpenDNS — including
// their anycast deployments, their location-query behaviours (Table 1),
// their service and egress addressing, and the supporting authoritative
// zones (whoami.akamai.com and o-o.myaddr.l.google.com style echo
// zones). It also provides the expected-response validators the detector
// uses to decide whether a location-query answer is "standard".
package publicdns

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"github.com/dnswatch/dnsloc/internal/dnswire"
)

// ID identifies a public resolver operator.
type ID string

// The four operators of the study.
const (
	Cloudflare ID = "cloudflare"
	Google     ID = "google"
	Quad9      ID = "quad9"
	OpenDNS    ID = "opendns"
)

// All lists the operators in the paper's presentation order.
var All = []ID{Cloudflare, Google, Quad9, OpenDNS}

// QueryKind distinguishes the two wire shapes of location queries.
type QueryKind string

// Location query kinds, as printed in Table 1's "Type" column.
const (
	KindChaosTXT QueryKind = "CHAOS TXT"
	KindTXT      QueryKind = "TXT"
)

// LocationQuery is the debugging query an operator implements for
// revealing which server answered (Table 1).
type LocationQuery struct {
	Kind QueryKind
	Name dnswire.Name
}

// Query describes the wire query, with ID zero. CHAOS queries go
// without RD, as dnswire.NewChaosTXTQuery sends them.
func (lq LocationQuery) Query() dnswire.Query {
	if lq.Kind == KindChaosTXT {
		return dnswire.Query{Name: lq.Name, Type: dnswire.TypeTXT, Class: dnswire.ClassCHAOS}
	}
	return dnswire.Query{Name: lq.Name, Type: dnswire.TypeTXT, Class: dnswire.ClassINET, RD: true}
}

// Message builds the wire query with the given ID.
func (lq LocationQuery) Message(id uint16) *dnswire.Message {
	q := lq.Query()
	q.ID = id
	return q.Message()
}

// Config is the static description of one operator.
type Config struct {
	ID          ID
	DisplayName string

	// V4 and V6 are the anycast service addresses, primary first.
	V4 []netip.Addr
	V6 []netip.Addr

	// ServicePrefixes cover the anycast service addresses, for routing.
	ServicePrefixes []netip.Prefix

	// EgressPrefixV4/V6 contain every egress address the operator's
	// recursive backends use; the transparency check (§4.1.2) tests
	// whether a whoami answer falls inside them.
	EgressPrefixV4 netip.Prefix
	EgressPrefixV6 netip.Prefix

	// Location is the operator's location query.
	Location LocationQuery

	// ExampleResponse is the sample shown in Table 1.
	ExampleResponse string

	// AnswersVersionBind: only Quad9 implements version.bind (§3.2).
	AnswersVersionBind bool
}

// configs holds the operator table. Service addresses are the real,
// well-known ones; egress prefixes are representative of each operator's
// published egress ranges.
var configs = map[ID]*Config{
	Cloudflare: {
		ID:          Cloudflare,
		DisplayName: "Cloudflare DNS",
		V4:          addrs("1.1.1.1", "1.0.0.1"),
		V6:          addrs("2606:4700:4700::1111", "2606:4700:4700::1001"),
		ServicePrefixes: prefixes(
			"1.1.1.0/24", "1.0.0.0/24", "2606:4700:4700::/48",
		),
		EgressPrefixV4:  netip.MustParsePrefix("172.68.0.0/16"),
		EgressPrefixV6:  netip.MustParsePrefix("2400:cb00::/32"),
		Location:        LocationQuery{Kind: KindChaosTXT, Name: "id.server"},
		ExampleResponse: "IAD",
	},
	Google: {
		ID:          Google,
		DisplayName: "Google DNS",
		V4:          addrs("8.8.8.8", "8.8.4.4"),
		V6:          addrs("2001:4860:4860::8888", "2001:4860:4860::8844"),
		ServicePrefixes: prefixes(
			"8.8.8.0/24", "8.8.4.0/24", "2001:4860:4860::/48",
		),
		EgressPrefixV4:  netip.MustParsePrefix("172.253.0.0/16"),
		EgressPrefixV6:  netip.MustParsePrefix("2001:4860::/36"),
		Location:        LocationQuery{Kind: KindTXT, Name: "o-o.myaddr.l.google.com"},
		ExampleResponse: "172.253.226.35",
	},
	Quad9: {
		ID:          Quad9,
		DisplayName: "Quad9",
		V4:          addrs("9.9.9.9", "149.112.112.112"),
		V6:          addrs("2620:fe::fe", "2620:fe::9"),
		ServicePrefixes: prefixes(
			"9.9.9.0/24", "149.112.112.0/24", "2620:fe::/48",
		),
		EgressPrefixV4:     netip.MustParsePrefix("204.61.216.0/21"),
		EgressPrefixV6:     netip.MustParsePrefix("2620:171::/44"),
		Location:           LocationQuery{Kind: KindChaosTXT, Name: "id.server"},
		ExampleResponse:    "res100.iad.rrdns.pch.net",
		AnswersVersionBind: true,
	},
	OpenDNS: {
		ID:          OpenDNS,
		DisplayName: "OpenDNS",
		V4:          addrs("208.67.222.222", "208.67.220.220"),
		V6:          addrs("2620:119:35::35", "2620:119:53::53"),
		ServicePrefixes: prefixes(
			// The v6 prefix must cover both :35::35 and :53::53.
			"208.67.222.0/24", "208.67.220.0/24", "2620:119::/40",
		),
		EgressPrefixV4:  netip.MustParsePrefix("146.112.0.0/16"),
		EgressPrefixV6:  netip.MustParsePrefix("2620:119:fc00::/40"),
		Location:        LocationQuery{Kind: KindTXT, Name: "debug.opendns.com"},
		ExampleResponse: "server m84.iad",
	},
}

// Lookup returns the operator config.
func Lookup(id ID) *Config {
	c, ok := configs[id]
	if !ok {
		panic(fmt.Sprintf("publicdns: unknown operator %q", id))
	}
	return c
}

// ByAddr finds the operator that owns a service address, if any.
func ByAddr(a netip.Addr) (*Config, bool) {
	for _, id := range All {
		if c := configs[id]; slices.Contains(c.V4, a) || slices.Contains(c.V6, a) {
			return c, true
		}
	}
	return nil, false
}

// InEgress reports whether addr belongs to the operator's egress space.
func (c *Config) InEgress(addr netip.Addr) bool {
	return c.EgressPrefixV4.Contains(addr.Unmap()) || c.EgressPrefixV6.Contains(addr)
}

// ValidateLocationAnswer decides whether a location-query answer is the
// operator's standard response (§3.1): each operator has a distinctive,
// globally consistent format, verified with the operators themselves.
// A response that fails validation means the query was answered by
// someone else — interception. The formats are checked byte by byte:
//
//	Cloudflare  ^[A-Z]{3}$                            (IATA airport code)
//	Google      an address inside the operator's egress space
//	Quad9       ^res\d+\.[a-z]{3}\.rrdns\.pch\.net$
//	OpenDNS     ^server m\d+\.[a-z]{3}$
func (c *Config) ValidateLocationAnswer(answer string) bool {
	answer = strings.TrimSpace(answer)
	switch c.ID {
	case Cloudflare:
		return len(answer) == 3 && allIn(answer, 'A', 'Z')
	case Google:
		a, err := netip.ParseAddr(answer)
		return err == nil && c.InEgress(a)
	case Quad9:
		rest, ok := strings.CutPrefix(answer, "res")
		return ok && siteSuffix(rest, ".rrdns.pch.net")
	case OpenDNS:
		rest, ok := strings.CutPrefix(answer, "server m")
		return ok && siteSuffix(rest, "")
	default:
		return false
	}
}

// siteSuffix reports whether s is one or more digits, a dot, three
// lowercase letters and then exactly tail.
func siteSuffix(s, tail string) bool {
	digits := 0
	for digits < len(s) && '0' <= s[digits] && s[digits] <= '9' {
		digits++
	}
	s = s[digits:]
	return digits > 0 && len(s) == 4+len(tail) && s[0] == '.' && allIn(s[1:4], 'a', 'z') && s[4:] == tail
}

// allIn reports whether every byte of s lies in [lo, hi].
func allIn(s string, lo, hi byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < lo || s[i] > hi {
			return false
		}
	}
	return true
}

// addrs parses a list of addresses.
func addrs(ss ...string) []netip.Addr {
	out := make([]netip.Addr, len(ss))
	for i, s := range ss {
		out[i] = netip.MustParseAddr(s)
	}
	return out
}

// prefixes parses a list of prefixes.
func prefixes(ss ...string) []netip.Prefix {
	out := make([]netip.Prefix, len(ss))
	for i, s := range ss {
		out[i] = netip.MustParsePrefix(s)
	}
	return out
}
