package dnsserver

import (
	"errors"
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

func addr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }
func pfx(s string) netip.Prefix  { return netip.MustParsePrefix(s) }

// dnsWorld is a miniature DNS tree on a flat backbone:
//
//	root (198.41.0.4) -> com TLD (192.5.6.30) -> example.com auth (192.0.2.2)
//	resolver at 10.53.0.53, client host at 203.0.113.2
type dnsWorld struct {
	net      *netsim.Network
	backbone *netsim.Router
	client   *netsim.Host
	resolver *RecursiveResolver
	resRtr   *netsim.Router
	authZone *Zone
}

func buildDNSWorld(t *testing.T) *dnsWorld {
	t.Helper()
	w := &dnsWorld{net: netsim.NewNetwork()}
	w.backbone = netsim.NewRouter("backbone")

	attach := func(r *netsim.Router, prefixes ...string) {
		for _, p := range prefixes {
			w.backbone.AddRoute(pfx(p), r)
		}
		r.AddDefaultRoute(w.backbone)
	}

	// Root.
	rootZone := NewZone("")
	rootZone.Delegate("com", map[dnswire.Name][]netip.Addr{
		"a.gtld-servers.net": {addr("192.5.6.30")},
	})
	rootRtr := netsim.NewRouter("root", addr("198.41.0.4"))
	rootRtr.Bind(53, NewAuthServer(rootZone))
	attach(rootRtr, "198.41.0.0/24")

	// com TLD.
	comZone := NewZone("com")
	comZone.Delegate("example.com", map[dnswire.Name][]netip.Addr{
		"ns1.example.com": {addr("192.0.2.2")},
	})
	comRtr := netsim.NewRouter("com-tld", addr("192.5.6.30"))
	comRtr.Bind(53, NewAuthServer(comZone))
	attach(comRtr, "192.5.6.0/24")

	// example.com auth.
	w.authZone = NewZone("example.com")
	w.authZone.AddAddr("www.example.com", 300, addr("192.0.2.80"))
	w.authZone.AddCNAME("alias.example.com", "www.example.com", 300)
	w.authZone.SetDynamic("whoami.example.com", func(q dnswire.Question, src netip.AddrPort) []dnswire.Record {
		if q.Type != dnswire.TypeA {
			return nil
		}
		return []dnswire.Record{{
			Name: q.Name, Class: dnswire.ClassINET, TTL: 0,
			Data: dnswire.ARData{Addr: src.Addr()},
		}}
	})
	authRtr := netsim.NewRouter("example-auth", addr("192.0.2.2"))
	authRtr.Bind(53, NewAuthServer(w.authZone))
	attach(authRtr, "192.0.2.0/24")

	// Recursive resolver.
	w.resolver = NewRecursiveResolver(addr("10.53.0.53"), addr("198.41.0.4"))
	w.resolver.Persona = PersonaUnbound
	w.resRtr = netsim.NewRouter("resolver", addr("10.53.0.53"))
	w.resRtr.Bind(53, w.resolver)
	attach(w.resRtr, "10.53.0.0/24")

	// Client.
	clientGW := netsim.NewRouter("client-gw", addr("203.0.113.1"))
	w.client = netsim.NewHost("client", addr("203.0.113.2"), netip.Addr{}, clientGW)
	clientGW.AddRoute(pfx("203.0.113.2/32"), w.client)
	clientGW.AddDefaultRoute(w.backbone)
	attach(clientGW, "203.0.113.0/24")
	return w
}

// resolve performs one query from the world's client through the resolver.
func (w *dnsWorld) resolve(t *testing.T, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	query := dnswire.NewQuery(100, dnswire.Name(name), typ, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	m, err := dnswire.Unpack(resps[0].Payload)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	return m
}

func TestRecursiveResolutionWalksTree(t *testing.T) {
	w := buildDNSWorld(t)
	m := w.resolve(t, "www.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %s", m.Header.RCode)
	}
	if len(m.Answers) != 1 || m.Answers[0].Data.(dnswire.ARData).Addr != addr("192.0.2.80") {
		t.Errorf("answers = %v", m.Answers)
	}
	if !m.Header.RecursionAvailable {
		t.Error("RA not set")
	}
}

func TestRecursiveResolutionNXDomain(t *testing.T) {
	w := buildDNSWorld(t)
	m := w.resolve(t, "nope.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %s, want NXDOMAIN", m.Header.RCode)
	}
}

func TestRecursiveResolutionCNAMEChase(t *testing.T) {
	w := buildDNSWorld(t)
	m := w.resolve(t, "alias.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %s", m.Header.RCode)
	}
	var sawCNAME, sawA bool
	for _, rr := range m.Answers {
		switch rr.Data.(type) {
		case dnswire.CNAMERData:
			sawCNAME = true
		case dnswire.ARData:
			sawA = true
		}
	}
	if !sawCNAME || !sawA {
		t.Errorf("answers = %v, want CNAME chain plus A", m.Answers)
	}
}

func TestRecursiveResolutionCachesAnswers(t *testing.T) {
	w := buildDNSWorld(t)
	events := 0
	w.net.Tap(func(netsim.TraceEvent) { events++ })
	w.resolve(t, "www.example.com", dnswire.TypeA)
	first := events
	events = 0
	w.resolve(t, "www.example.com", dnswire.TypeA)
	if events >= first {
		t.Errorf("cached resolution used %d events, uncached %d — cache not effective", events, first)
	}
}

func TestRecursiveResolverEchoZoneSeesResolverEgress(t *testing.T) {
	w := buildDNSWorld(t)
	m := w.resolve(t, "whoami.example.com", dnswire.TypeA)
	if len(m.Answers) != 1 {
		t.Fatalf("answers = %v", m.Answers)
	}
	if got := m.Answers[0].Data.(dnswire.ARData).Addr; got != addr("10.53.0.53") {
		t.Errorf("whoami echoed %s, want resolver egress 10.53.0.53", got)
	}
}

func TestRecursiveResolverChaosPersona(t *testing.T) {
	w := buildDNSWorld(t)
	query := dnswire.NewChaosTXTQuery(5, "version.bind")
	resps, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if s, _ := m.FirstTXT(); s != "unbound 1.9.0" {
		t.Errorf("version.bind = %q", s)
	}
}

func TestRecursiveResolverRefuseAll(t *testing.T) {
	w := buildDNSWorld(t)
	w.resolver.RefuseAll = dnswire.RCodeRefused
	m := w.resolve(t, "www.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s, want REFUSED", m.Header.RCode)
	}
}

func TestRecursiveResolverBlocklist(t *testing.T) {
	w := buildDNSWorld(t)
	w.resolver.Blocklist = map[dnswire.Name]dnswire.RCode{
		"www.example.com": dnswire.RCodeNameError,
	}
	m := w.resolve(t, "www.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %s, want NXDOMAIN from blocklist", m.Header.RCode)
	}
	m = w.resolve(t, "whoami.example.com", dnswire.TypeA)
	if m.Header.RCode != dnswire.RCodeSuccess {
		t.Errorf("unblocked name rcode = %s", m.Header.RCode)
	}
}

func TestAuthServerRefusesForeignZones(t *testing.T) {
	w := buildDNSWorld(t)
	query := dnswire.NewQuery(6, "example.org", dnswire.TypeA, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("192.0.2.2:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if m.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s, want REFUSED", m.Header.RCode)
	}
}

func TestAuthServerReferral(t *testing.T) {
	w := buildDNSWorld(t)
	query := dnswire.NewQuery(7, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("198.41.0.4:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if len(m.Answers) != 0 || len(m.Authority) == 0 || len(m.Additional) == 0 {
		t.Errorf("referral shape wrong: %s", m)
	}
	if m.Header.Authoritative {
		t.Error("referral marked authoritative")
	}
}

func TestForwarderRelaysAndAnswersVersionBind(t *testing.T) {
	w := buildDNSWorld(t)
	// A forwarder box in front of the resolver, dnsmasq persona.
	fwdRtr := netsim.NewRouter("fwd", addr("172.20.0.1"))
	fwd := NewForwarder(PersonaDnsmasq, addr("172.20.0.1"), ap("10.53.0.53:53"))
	fwdRtr.Bind(53, fwd)
	fwdRtr.AddDefaultRoute(w.backbone)
	w.backbone.AddRoute(pfx("172.20.0.0/24"), fwdRtr)

	// Relay: an IN A query reaches the resolver and comes back.
	query := dnswire.NewQuery(8, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("172.20.0.1:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if m.Header.ID != 8 || len(m.Answers) == 0 {
		t.Errorf("forwarded answer = %s", m)
	}

	// version.bind answered locally with the dnsmasq string.
	vb := dnswire.NewChaosTXTQuery(9, "version.bind")
	resps, err = w.client.Exchange(w.net, ap("172.20.0.1:53"), dnswire.MustPack(vb), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ = dnswire.Unpack(resps[0].Payload)
	if s, _ := m.FirstTXT(); s != "dnsmasq-2.85" {
		t.Errorf("version.bind = %q, want dnsmasq persona", s)
	}
}

func TestForwarderForwardUnhandledChaos(t *testing.T) {
	w := buildDNSWorld(t)
	fwdRtr := netsim.NewRouter("fwd", addr("172.20.0.1"))
	fwd := NewForwarder(PersonaSilent, addr("172.20.0.1"), ap("10.53.0.53:53"))
	fwd.ForwardUnhandledChaos = true
	fwdRtr.Bind(53, fwd)
	fwdRtr.AddDefaultRoute(w.backbone)
	w.backbone.AddRoute(pfx("172.20.0.0/24"), fwdRtr)

	// version.bind is forwarded to the resolver, whose persona answers.
	vb := dnswire.NewChaosTXTQuery(10, "version.bind")
	resps, err := w.client.Exchange(w.net, ap("172.20.0.1:53"), dnswire.MustPack(vb), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if s, _ := m.FirstTXT(); s != "unbound 1.9.0" {
		t.Errorf("forwarded version.bind = %q, want upstream's string", s)
	}
}

func TestForwarderWithoutUpstreamServfails(t *testing.T) {
	w := buildDNSWorld(t)
	fwdRtr := netsim.NewRouter("fwd", addr("172.20.0.1"))
	fwd := NewForwarder(PersonaDnsmasq, addr("172.20.0.1"), netip.AddrPort{})
	fwdRtr.Bind(53, fwd)
	fwdRtr.AddDefaultRoute(w.backbone)
	w.backbone.AddRoute(pfx("172.20.0.0/24"), fwdRtr)

	query := dnswire.NewQuery(11, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("172.20.0.1:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnswire.Unpack(resps[0].Payload)
	if m.Header.RCode != dnswire.RCodeServerFailure {
		t.Errorf("rcode = %s, want SERVFAIL", m.Header.RCode)
	}
}

func TestResolverUnreachableAuthTimesOut(t *testing.T) {
	w := buildDNSWorld(t)
	// Point the com delegation at a black hole: resolution dies upstream,
	// so the client sees silence (timeout), not an answer.
	rootZone := NewZone("")
	rootZone.Delegate("com", map[dnswire.Name][]netip.Addr{
		"a.gtld-servers.net": {addr("203.0.113.254")}, // routed nowhere
	})
	rootRtr := netsim.NewRouter("root2", addr("198.41.0.4"))
	_ = rootRtr
	// Rebuild: simpler to flush cache and retarget the resolver's hints at
	// a dead address directly.
	w.resolver.FlushCache()
	w.resolver.RootHints = []netip.Addr{addr("203.0.113.254")}
	query := dnswire.NewQuery(12, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	_, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

// TestAuthServerAddZone: zones attached after construction join the
// longest-origin-match selection.
func TestAuthServerAddZone(t *testing.T) {
	s := NewAuthServer()
	z := NewZone("example.com")
	s.AddZone(z)
	if got := s.bestZone("www.example.com"); got != z {
		t.Errorf("bestZone = %v, want the added zone", got)
	}
	if s.bestZone("www.example.org") != nil {
		t.Error("bestZone matched a foreign origin")
	}
}
