package core

import (
	"encoding/binary"
	"net/netip"
	"sync"

	"github.com/dnswatch/dnsloc/internal/bogon"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// A probe's queries depend only on the detector's config, never on what
// the probe has seen: which operators are under test, QueryV6, the
// canary name and the bogon destinations. A queryPlan is that config
// compiled once into wire templates. An exchange copies its template and
// patches in the query ID; only clients without ExchangeReply get a
// Message, built from the same entry.

// planQuery is one query of a plan: its question and flags, and its
// wire encoding with ID zero (or the error packing it gave).
type planQuery struct {
	dnswire.Query
	wire []byte
	err  error
}

// compileQuery packs q as a plan entry.
func compileQuery(q dnswire.Query) *planQuery {
	wire, err := dnswire.AppendQuery(nil, q)
	return &planQuery{Query: q, wire: wire, err: err}
}

// appendWire appends the query with the given ID to dst.
func (q *planQuery) appendWire(dst []byte, id uint16) []byte {
	start := len(dst)
	dst = append(dst, q.wire...)
	binary.BigEndian.PutUint16(dst[start:], id)
	return dst
}

// message builds the query with the given ID as a Message, for clients
// without ExchangeReply.
func (q *planQuery) message(id uint16) *dnswire.Message {
	m := q.Query
	m.ID = id
	return m.Message()
}

// locationTarget is one step-1 target: an address of an operator under
// test and the operator's location query.
type locationTarget struct {
	op     *publicdns.Config
	server netip.AddrPort
	query  *planQuery
}

// queryPlan is every query a detector config can send.
type queryPlan struct {
	// location lists every address of every operator under test, in
	// deterministic order; the drift step re-issues exactly this list.
	location []locationTarget
	// versionBind goes to the CPE and to each intercepted resolver.
	versionBind *planQuery
	// whoami goes to each intercepted resolver.
	whoami *planQuery
	// bogonA and bogonAAAA go to the bogon destinations.
	bogonA, bogonAAAA *planQuery
	bogonV4, bogonV6  netip.AddrPort
}

// defaultPlans are the plans of the default config without and with
// QueryV6, compiled once per process and shared read-only.
var defaultPlans = sync.OnceValue(func() [2]*queryPlan {
	return [2]*queryPlan{(&Detector{}).compile(), (&Detector{QueryV6: true}).compile()}
})

// plan returns the detector's query plan: a shared default one unless
// the config names operators, a canary or bogons.
func (d *Detector) plan() *queryPlan {
	if len(d.Resolvers) > 0 || d.CanaryName != "" || d.BogonV4.IsValid() || d.BogonV6.IsValid() {
		return d.compile()
	}
	if d.QueryV6 {
		return defaultPlans()[1]
	}
	return defaultPlans()[0]
}

// compile builds the detector config's query plan.
func (d *Detector) compile() *queryPlan {
	name := d.CanaryName
	if name == "" {
		name = publicdns.CanaryDomain
	}
	b4, b6 := d.BogonV4, d.BogonV6
	if !b4.IsValid() {
		b4 = bogon.ProbeV4
	}
	if !b6.IsValid() {
		b6 = bogon.ProbeV6
	}
	p := &queryPlan{
		versionBind: compileQuery(dnswire.Query{Name: "version.bind", Type: dnswire.TypeTXT, Class: dnswire.ClassCHAOS}),
		whoami:      compileQuery(dnswire.Query{Name: publicdns.WhoamiDomain, Type: dnswire.TypeA, Class: dnswire.ClassINET, RD: true}),
		bogonA:      compileQuery(dnswire.Query{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, RD: true}),
		bogonAAAA:   compileQuery(dnswire.Query{Name: name, Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, RD: true}),
		bogonV4:     netip.AddrPortFrom(b4, 53),
		bogonV6:     netip.AddrPortFrom(b6, 53),
	}
	for _, id := range d.resolvers() {
		cfg := publicdns.Lookup(id)
		q := compileQuery(cfg.Location.Query())
		servers := cfg.V4
		if d.QueryV6 {
			servers = append(servers[:len(servers):len(servers)], cfg.V6...)
		}
		for _, server := range servers {
			p.location = append(p.location, locationTarget{op: cfg, server: netip.AddrPortFrom(server, 53), query: q})
		}
	}
	return p
}
