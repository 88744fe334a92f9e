package dnsserver

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnssec"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// legacyAuthAnswer is the authoritative server's answer as it was built
// before servers answered from the query's view: a Message made with
// NewResponse from the decoded query, for Pack. It is the reference of
// TestAuthAnswerWireIdentity.
func legacyAuthAnswer(s *AuthServer, query *dnswire.Message, src netip.AddrPort) *dnswire.Message {
	q := query.Question()
	if q.Class != dnswire.ClassINET {
		return dnswire.NewErrorResponse(query, dnswire.RCodeNotImplemented)
	}
	zone := s.bestZone(q.Name)
	if zone == nil {
		return dnswire.NewErrorResponse(query, dnswire.RCodeRefused)
	}
	result, rrs, deleg := zone.Lookup(q, src)
	resp := dnswire.NewResponse(query, dnswire.RCodeSuccess)
	resp.Header.Authoritative = true
	wantDNSSEC := query.DO() && zone.Signed()
	switch result {
	case LookupAnswer, LookupCNAME:
		resp.Answers = append(resp.Answers, rrs...)
		if wantDNSSEC && len(rrs) > 0 {
			if sig, ok := zone.SignatureFor(rrs[0].Name, rrs[0].Type()); ok {
				resp.Answers = append(resp.Answers, sig)
			}
		}
		if result == LookupCNAME {
			if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
				legacyChaseCNAME(s, resp, cname.Target, q, src, 0)
			}
		}
	case LookupNoData:
		resp.Authority = append(resp.Authority, zone.SOARecord())
	case LookupNXDomain:
		resp.Header.RCode = dnswire.RCodeNameError
		resp.Authority = append(resp.Authority, zone.SOARecord())
	case LookupDelegation:
		resp.Header.Authoritative = false
		resp.Authority, resp.Additional = deleg.authority, deleg.additional
	case LookupOutOfZone:
		resp.Header.RCode = dnswire.RCodeRefused
	}
	return resp
}

func legacyChaseCNAME(s *AuthServer, resp *dnswire.Message, target dnswire.Name, q dnswire.Question, src netip.AddrPort, depth int) {
	if depth > 4 {
		return
	}
	zone := s.bestZone(target)
	if zone == nil {
		return
	}
	result, rrs, _ := zone.Lookup(dnswire.Question{Name: target, Type: q.Type, Class: q.Class}, src)
	switch result {
	case LookupAnswer:
		resp.Answers = append(resp.Answers, rrs...)
	case LookupCNAME:
		resp.Answers = append(resp.Answers, rrs...)
		if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
			legacyChaseCNAME(s, resp, cname.Target, q, src, depth+1)
		}
	}
}

// legacyPack packs a legacy answer as the servers did: a response that
// fails to pack becomes SERVFAIL to the query.
func legacyPack(query, resp *dnswire.Message) []byte {
	b, err := resp.PackTo(nil)
	if err != nil {
		return dnswire.MustPack(dnswire.NewErrorResponse(query, dnswire.RCodeServerFailure))
	}
	return b
}

// TestAuthAnswerWireIdentity: every answer an authoritative server
// writes from the query's view is byte for byte the legacy Message,
// over signed and unsigned zones, referrals, in-zone CNAME chains,
// NXDOMAIN, NODATA, dynamic names, DNSKEY and DS, foreign names and
// classes, mixed case, RD on and off, with and without DO, and answers
// too long for UDP or with an unpackable record.
func TestAuthAnswerWireIdentity(t *testing.T) {
	key := dnssec.GenerateKey("example.com", "wire-identity")
	root := NewZone("")
	root.Delegate("com", map[dnswire.Name][]netip.Addr{"a.gtld-servers.net": {addr("192.5.6.30")}})
	com := NewZone("com")
	com.Delegate("example.com", map[dnswire.Name][]netip.Addr{
		"ns1.example.com": {addr("192.0.2.2")},
		"NS2.Example.com": {addr("192.0.2.3"), addr("2001:db8::53")},
	})
	com.MustAdd(key.DSRecord(3600))
	ex := NewZone("example.com")
	ex.AddAddr("www.example.com", 300, addr("192.0.2.80"), addr("2001:db8::80"))
	ex.AddTXT("www.example.com", 60, "v=spf1 -all")
	ex.AddCNAME("alias.example.com", "www.example.com", 300)
	ex.AddCNAME("Hop.example.com", "ALIAS.example.com", 120)
	ex.AddCNAME("out.example.com", "www.example.org", 120)
	for i := 0; i < 40; i++ {
		ex.AddAddr("big.example.com", 60, netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}))
	}
	ex.SetDynamic("whoami.example.com", func(q dnswire.Question, src netip.AddrPort) []dnswire.Record {
		switch q.Type {
		case dnswire.TypeA:
			return []dnswire.Record{{Name: q.Name, Class: dnswire.ClassINET, Data: dnswire.ARData{Addr: src.Addr()}}}
		case dnswire.TypeTXT:
			return []dnswire.Record{{Name: q.Name, Class: dnswire.ClassINET, Data: dnswire.TXTRData{Strings: []string{strings.Repeat("x", 300)}}}}
		}
		return nil
	})
	if err := ex.Sign(key); err != nil {
		t.Fatal(err)
	}
	servers := map[string]*AuthServer{"root": NewAuthServer(root), "com": NewAuthServer(com), "example": NewAuthServer(ex)}
	names := []dnswire.Name{
		"www.example.com", "WWW.Example.COM", "alias.example.com", "hop.EXAMPLE.com",
		"out.example.com", "nx.example.com", "deep.nx.example.com", "whoami.example.com",
		"big.example.com", "example.com", "Example.Com", "com", "www.example.org", "",
	}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeTXT, dnswire.TypeCNAME,
		dnswire.TypeANY, dnswire.TypeDNSKEY, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeNS}
	src := ap("203.0.113.9:40000")
	id := uint16(0)
	for sname, s := range servers {
		for _, name := range names {
			for _, typ := range types {
				for _, class := range []dnswire.Class{dnswire.ClassINET, 4} {
					for variant := 0; variant < 4; variant++ {
						id++
						query := dnswire.NewQuery(id, name, typ, class)
						query.Header.RecursionDesired = variant&1 == 0
						if variant&2 != 0 {
							query.SetEDNS(4096, true)
						}
						want := legacyPack(query, legacyAuthAnswer(s, query, src))
						got := s.handle([]byte("pre"), viewOf(t, query), src)
						if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
							t.Fatalf("%s %s %s %s variant %d:\n got %x\nwant %x", sname, name, class, typ, variant, got, want)
						}
					}
				}
			}
		}
	}
}

// legacyResolverAnswer is the recursive resolver's answer as it was
// built before it answered from the query's view: NewResponse from the
// decoded client query with recursion available and the answer records
// appended. It is the reference of TestResolverAnswerWireIdentity.
func legacyResolverAnswer(query *dnswire.Message, rc dnswire.RCode, answers ...dnswire.Record) []byte {
	resp := dnswire.NewResponse(query, rc)
	resp.Header.RecursionAvailable = true
	resp.Answers = append(resp.Answers, answers...)
	return legacyPack(query, resp)
}

// TestResolverAnswerWireIdentity: the recursive resolver's answers,
// written from the client query's view, are byte for byte the legacy
// Message for a plain answer, a CNAME chased across queries, NXDOMAIN
// with and without wildcarding, NODATA, and a DNSSEC-aware resolver
// asked with and without DO — each cold and again from the cache, in
// mixed case and with RD on and off.
func TestResolverAnswerWireIdentity(t *testing.T) {
	w, _ := signedWorld(t)
	aRR := dnswire.Record{Name: "www.example.com", Class: dnswire.ClassINET, TTL: 300, Data: dnswire.ARData{Addr: addr("192.0.2.80")}}
	cnameRR := dnswire.Record{Name: "alias.example.com", Class: dnswire.ClassINET, TTL: 300, Data: dnswire.CNAMERData{Target: "www.example.com"}}
	aSig, ok := w.authZone.SignatureFor("www.example.com", dnswire.TypeA)
	if !ok {
		t.Fatal("no RRSIG for www.example.com A")
	}
	wildcard := addr("198.51.100.7")
	cases := []struct {
		name     dnswire.Name
		typ      dnswire.Type
		dnssec   bool // the resolver validates
		do       bool // the client sets DO
		wildcard bool
		rc       dnswire.RCode
		answers  []dnswire.Record
	}{
		{name: "www.example.com", typ: dnswire.TypeA, answers: []dnswire.Record{aRR}},
		{name: "WWW.Example.com", typ: dnswire.TypeA, answers: []dnswire.Record{aRR}},
		{name: "alias.example.com", typ: dnswire.TypeA, answers: []dnswire.Record{cnameRR, aRR}},
		{name: "nx.example.com", typ: dnswire.TypeA, rc: dnswire.RCodeNameError},
		{name: "nx.example.com", typ: dnswire.TypeA, wildcard: true,
			answers: []dnswire.Record{{Name: "nx.example.com", Class: dnswire.ClassINET, TTL: 30, Data: dnswire.ARData{Addr: wildcard}}}},
		{name: "NX.example.com", typ: dnswire.TypeAAAA, wildcard: true, rc: dnswire.RCodeNameError},
		// NODATA comes back with the zone's SOA in the authority section,
		// which the resolver takes for a glueless referral; after a CNAME,
		// the chain it chased stays in the answer.
		{name: "www.example.com", typ: dnswire.TypeTXT, rc: dnswire.RCodeServerFailure},
		{name: "alias.example.com", typ: dnswire.TypeTXT, rc: dnswire.RCodeServerFailure, answers: []dnswire.Record{cnameRR}},
		{name: "www.example.com", typ: dnswire.TypeA, dnssec: true, do: true, answers: []dnswire.Record{aRR, aSig}},
		{name: "Alias.example.com", typ: dnswire.TypeA, dnssec: true, do: true, answers: []dnswire.Record{cnameRR, aRR, aSig}},
		{name: "www.example.com", typ: dnswire.TypeA, dnssec: true, answers: []dnswire.Record{aRR}},
		{name: "www.example.com", typ: dnswire.TypeA, do: true, answers: []dnswire.Record{aRR}},
	}
	id := uint16(500)
	for _, c := range cases {
		w.resolver.FlushCache()
		w.resolver.DNSSECAware = c.dnssec
		w.resolver.NXDomainWildcard = netip.Addr{}
		if c.wildcard {
			w.resolver.NXDomainWildcard = wildcard
		}
		for _, round := range []string{"cold", "cached"} {
			for _, rd := range []bool{true, false} {
				id++
				query := dnswire.NewQuery(id, c.name, c.typ, dnswire.ClassINET)
				query.Header.RecursionDesired = rd
				if c.do {
					query.SetEDNS(4096, true)
				}
				resps, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, c.typ, err)
				}
				label := fmt.Sprintf("%s %s dnssec=%t do=%t wildcard=%t %s rd=%t", c.name, c.typ, c.dnssec, c.do, c.wildcard, round, rd)
				if got, want := resps[0].Payload, legacyResolverAnswer(query, c.rc, c.answers...); !bytes.Equal(got, want) {
					m, _ := dnswire.Unpack(got)
					t.Errorf("%s:\n got %x\nwant %x\n%s", label, got, want, m)
				}
			}
		}
	}
	if n := len(w.resolver.pending); n != 0 {
		t.Errorf("resolver holds %d jobs after the exchanges", n)
	}
}
