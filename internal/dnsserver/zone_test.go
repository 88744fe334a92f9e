package dnsserver

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
)

func q(name string, typ dnswire.Type) dnswire.Question {
	return dnswire.Question{Name: dnswire.Name(name), Type: typ, Class: dnswire.ClassINET}
}

var testSrc = netip.MustParseAddrPort("198.51.100.9:4242")

func TestZoneLookupAnswer(t *testing.T) {
	z := NewZone("example.com")
	z.AddAddr("www.example.com", 300, netip.MustParseAddr("192.0.2.10"))
	res, rrs, _ := z.Lookup(q("www.example.com", dnswire.TypeA), testSrc)
	if res != LookupAnswer || len(rrs) != 1 {
		t.Fatalf("res=%v rrs=%v", res, rrs)
	}
	if rrs[0].Data.(dnswire.ARData).Addr != netip.MustParseAddr("192.0.2.10") {
		t.Errorf("addr = %v", rrs[0].Data)
	}
}

func TestZoneLookupCaseInsensitive(t *testing.T) {
	z := NewZone("example.com")
	z.AddAddr("WWW.Example.COM", 300, netip.MustParseAddr("192.0.2.10"))
	res, _, _ := z.Lookup(q("www.EXAMPLE.com", dnswire.TypeA), testSrc)
	if res != LookupAnswer {
		t.Errorf("res = %v, want LookupAnswer", res)
	}
}

func TestZoneLookupNoData(t *testing.T) {
	z := NewZone("example.com")
	z.AddAddr("www.example.com", 300, netip.MustParseAddr("192.0.2.10"))
	res, _, _ := z.Lookup(q("www.example.com", dnswire.TypeAAAA), testSrc)
	if res != LookupNoData {
		t.Errorf("res = %v, want LookupNoData", res)
	}
}

func TestZoneLookupNXDomain(t *testing.T) {
	z := NewZone("example.com")
	res, _, _ := z.Lookup(q("missing.example.com", dnswire.TypeA), testSrc)
	if res != LookupNXDomain {
		t.Errorf("res = %v, want LookupNXDomain", res)
	}
}

func TestZoneLookupOutOfZone(t *testing.T) {
	z := NewZone("example.com")
	res, _, _ := z.Lookup(q("example.org", dnswire.TypeA), testSrc)
	if res != LookupOutOfZone {
		t.Errorf("res = %v, want LookupOutOfZone", res)
	}
}

func TestZoneLookupCNAME(t *testing.T) {
	z := NewZone("example.com")
	z.AddCNAME("alias.example.com", "www.example.com", 300)
	res, rrs, _ := z.Lookup(q("alias.example.com", dnswire.TypeA), testSrc)
	if res != LookupCNAME || len(rrs) != 1 {
		t.Fatalf("res=%v", res)
	}
}

func TestZoneDelegation(t *testing.T) {
	root := NewZone("")
	root.Delegate("com", map[dnswire.Name][]netip.Addr{
		"a.gtld": {netip.MustParseAddr("192.5.6.30")},
	})
	res, _, d := root.Lookup(q("www.example.com", dnswire.TypeA), testSrc)
	if res != LookupDelegation || d == nil || !d.Cut.Equal("com") {
		t.Fatalf("res=%v d=%+v", res, d)
	}
	if len(d.NS) != 1 || d.NS[0] != "a.gtld" {
		t.Errorf("NS = %v", d.NS)
	}
}

func TestZoneDynamicEchoesSource(t *testing.T) {
	z := NewZone("akamai.com")
	z.SetDynamic("whoami.akamai.com", func(question dnswire.Question, src netip.AddrPort) []dnswire.Record {
		if question.Type != dnswire.TypeA {
			return nil
		}
		return []dnswire.Record{{
			Name: question.Name, Class: dnswire.ClassINET, TTL: 0,
			Data: dnswire.ARData{Addr: src.Addr()},
		}}
	})
	res, rrs, _ := z.Lookup(q("whoami.akamai.com", dnswire.TypeA), testSrc)
	if res != LookupAnswer || len(rrs) != 1 {
		t.Fatalf("res=%v", res)
	}
	if rrs[0].Data.(dnswire.ARData).Addr != testSrc.Addr() {
		t.Errorf("echoed %v, want %v", rrs[0].Data, testSrc.Addr())
	}
	// Wrong type yields NoData.
	res, _, _ = z.Lookup(q("whoami.akamai.com", dnswire.TypeTXT), testSrc)
	if res != LookupNoData {
		t.Errorf("TXT lookup res = %v, want LookupNoData", res)
	}
}

func TestZoneRejectsOutOfZoneRecord(t *testing.T) {
	z := NewZone("example.com")
	err := z.Add(dnswire.Record{
		Name: "example.org", Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	if err == nil {
		t.Fatal("out-of-zone record accepted")
	}
}

func TestZoneANYQuery(t *testing.T) {
	z := NewZone("example.com")
	z.AddAddr("m.example.com", 300, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1"))
	z.AddTXT("m.example.com", 300, "hello")
	res, rrs, _ := z.Lookup(q("m.example.com", dnswire.TypeANY), testSrc)
	if res != LookupAnswer || len(rrs) != 3 {
		t.Fatalf("res=%v len=%d, want 3 records", res, len(rrs))
	}
}

func TestChaosPersonaAnswers(t *testing.T) {
	answer := func(p ChaosPersona, q *dnswire.Message) *dnswire.Message {
		t.Helper()
		v := viewOf(t, q)
		r, ok := p.answerView(v)
		if !ok {
			return nil
		}
		m, err := dnswire.Unpack(replyWire(t, r, v))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	p := PersonaUnbound
	vb := dnswire.NewChaosTXTQuery(1, "version.bind")
	resp := answer(p, vb)
	if s, _ := resp.FirstTXT(); s != "unbound 1.9.0" {
		t.Errorf("version.bind = %q", s)
	}
	id := dnswire.NewChaosTXTQuery(2, "id.server")
	resp = answer(p, id)
	if s, _ := resp.FirstTXT(); s != "unbound" {
		t.Errorf("id.server = %q", s)
	}
	// Silent persona NOTIMPs.
	resp = answer(PersonaSilent, vb)
	if resp.Header.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("silent persona rcode = %s", resp.Header.RCode)
	}
	// NXDomain persona.
	resp = answer(PersonaNXDomain, vb)
	if resp.Header.RCode != dnswire.RCodeNameError {
		t.Errorf("nxdomain persona rcode = %s", resp.Header.RCode)
	}
	// Non-CHAOS queries are not handled.
	if answer(p, dnswire.NewQuery(3, "version.bind", dnswire.TypeTXT, dnswire.ClassINET)) != nil {
		t.Error("persona answered an IN query")
	}
	// hostname.bind is an identity query.
	resp = answer(p, dnswire.NewChaosTXTQuery(4, "hostname.bind"))
	if s, _ := resp.FirstTXT(); s != "unbound" {
		t.Errorf("hostname.bind = %q, want identity", s)
	}
	// Unknown CHAOS debug name NOTIMPs.
	resp = answer(p, dnswire.NewChaosTXTQuery(5, "authors.bind"))
	if resp.Header.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("authors.bind rcode = %s, want NOTIMP", resp.Header.RCode)
	}
}

func TestChaosDebugNameClassification(t *testing.T) {
	if !IsChaosDebugName("version.bind") || !IsChaosDebugName("ID.SERVER") {
		t.Error("debug names not recognized")
	}
	if IsChaosDebugName("example.com") {
		t.Error("example.com classified as debug name")
	}
	if !IsVersionQuery("version.server") || IsVersionQuery("id.server") {
		t.Error("IsVersionQuery misbehaves")
	}
	if !IsIdentityQuery("hostname.bind") || IsIdentityQuery("version.bind") {
		t.Error("IsIdentityQuery misbehaves")
	}
}
