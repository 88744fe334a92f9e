package dnsserver

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// legacyPersonaAnswer is the persona's answer as it was built before
// servers answered from the query's view: a Message for Pack. It is the
// wire-identity tests' reference, with the dnswire builders.
func legacyPersonaAnswer(p ChaosPersona, q *dnswire.Message) *dnswire.Message {
	question := q.Question()
	if question.Class != dnswire.ClassCHAOS || question.Type != dnswire.TypeTXT {
		return nil
	}
	switch {
	case IsVersionQuery(question.Name):
		if p.Version == "" {
			return dnswire.NewErrorResponse(q, rcodeOrNotImp(p.VersionRCode))
		}
		return dnswire.NewTXTResponse(q, p.Version)
	case IsIdentityQuery(question.Name):
		if p.Identity == "" {
			return dnswire.NewErrorResponse(q, rcodeOrNotImp(p.IdentityRCode))
		}
		return dnswire.NewTXTResponse(q, p.Identity)
	default:
		return dnswire.NewErrorResponse(q, dnswire.RCodeNotImplemented)
	}
}

// replyWire encodes r to the viewed query as send does.
func replyWire(t *testing.T, r chaosReply, v *dnswire.View) []byte {
	t.Helper()
	if r.isErr {
		return v.AppendErrorResponse(nil, r.rc)
	}
	wire, err := v.AppendTXTResponse(nil, r.txt)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// viewOf packs m and views the bytes.
func viewOf(t *testing.T, m *dnswire.Message) *dnswire.View {
	t.Helper()
	v, err := dnswire.ParseView(dnswire.MustPack(m))
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

var stockPersonas = []ChaosPersona{
	PersonaDnsmasq, PersonaDnsmasqOld, PersonaPiHole, PersonaUnbound,
	PersonaRedHat, PersonaDebian, PersonaPowerDNS, PersonaBindBare,
	PersonaWindows, PersonaMicrosoft, PersonaQ9, PersonaNew,
	PersonaUnknown, PersonaNone, PersonaHuuh, PersonaSilent, PersonaNXDomain,
}

// TestFrontDoorWireIdentity: every persona answer the servers write
// from the query's view is byte for byte what packing the Message the
// builders make wrote. It runs every stock persona × each debugging name
// in mixed case (plus one that is not a debugging name) × RD on and off
// × two opcodes through the forwarder, the recursive resolver and the
// authoritative server of a small simulated world.
func TestFrontDoorWireIdentity(t *testing.T) {
	w, fwd := fwdWorld(t)
	auth := NewAuthServer()
	authRtr := netsim.NewRouter("chaos-auth", addr("192.0.9.9"))
	authRtr.Bind(53, auth)
	authRtr.AddDefaultRoute(w.backbone)
	w.backbone.AddRoute(pfx("192.0.9.0/24"), authRtr)

	servers := []struct {
		name    string
		addr    netip.AddrPort
		persona *ChaosPersona
	}{
		{"forwarder", ap("172.20.0.1:53"), &fwd.Persona},
		{"recursive", ap("10.53.0.53:53"), &w.resolver.Persona},
		{"auth", ap("192.0.9.9:53"), &auth.Persona},
	}
	// The forwarder relays a name that is not a debugging name to the
	// recursive resolver, so both carry the persona under test.
	names := []dnswire.Name{
		"version.bind", "VERSION.Bind", "version.SERVER",
		"hostname.bind", "HostName.BIND", "id.server", "Id.Server",
		"authors.bind",
	}
	id := uint16(0)
	for _, p := range stockPersonas {
		for _, s := range servers {
			*s.persona = p
			w.resolver.Persona = p
			for _, name := range names {
				for _, rd := range []bool{false, true} {
					for _, op := range []dnswire.Opcode{dnswire.OpcodeQuery, dnswire.OpcodeStatus} {
						id++
						q := dnswire.NewChaosTXTQuery(id, name)
						q.Header.RecursionDesired = rd
						q.Header.Opcode = op
						want := dnswire.MustPack(legacyPersonaAnswer(p, q))
						resps, err := w.client.Exchange(w.net, s.addr, dnswire.MustPack(q), netsim.ExchangeOptions{})
						if err != nil {
							t.Fatalf("%s %+v %s: %v", s.name, p, name, err)
						}
						if got := resps[0].Payload; !bytes.Equal(got, want) {
							t.Errorf("%s persona %+v, %s rd=%t op=%s:\n got %x\nwant %x", s.name, p, name, rd, op, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAdversaryWireIdentity: both shapes of an evasive CHAOS answer, a
// forged or replayed TXT string and a replayed error, encode as the
// builders' Message packs.
func TestAdversaryWireIdentity(t *testing.T) {
	adv := replayAdversary(2)
	adv.Forge = func(target netip.Addr, name dnswire.Name, draw uint64) (string, bool) {
		return "QJX", IsIdentityQuery(name)
	}
	pkt := advPacket(advClient, advTarget)
	for i, c := range []struct {
		name dnswire.Name
		want func(*dnswire.Message) *dnswire.Message
	}{
		{"ID.server", func(q *dnswire.Message) *dnswire.Message { return dnswire.NewTXTResponse(q, "QJX") }},
		{"Version.Bind", func(q *dnswire.Message) *dnswire.Message {
			return dnswire.NewErrorResponse(q, dnswire.RCodeNotImplemented)
		}},
	} {
		q := dnswire.NewChaosTXTQuery(uint16(200+i), c.name)
		q.Header.RecursionDesired = i == 0
		v := viewOf(t, q)
		r, ok, drop := adv.chaosAnswer(v, pkt, advSelf)
		if !ok || drop {
			t.Fatalf("%s: ok=%t drop=%t", c.name, ok, drop)
		}
		if got, want := replyWire(t, r, v), dnswire.MustPack(c.want(q)); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", c.name, got, want)
		}
	}
}

// TestHookWireIdentity: a resolver hook's answer set — one TXT record
// per string, as the public resolvers' site answers are shaped — goes
// out as the Message a hook used to build, with further records
// appended to NewTXTResponse's.
func TestHookWireIdentity(t *testing.T) {
	w := buildDNSWorld(t)
	answers := [][]string{
		{"192.0.2.53"},
		{"192.0.2.53", "edns0-client-subnet 198.51.100.0/24"},
		{"server m81.fra", "flags 20 0 2F"},
	}
	for i, txts := range answers {
		w.resolver.Hook = func(dnswire.View, netip.AddrPort) []string { return txts }
		q := dnswire.NewQuery(uint16(300+i), "O-O.myaddr.L.google.com", dnswire.TypeTXT, dnswire.ClassINET)
		q.SetECS(netip.MustParsePrefix("198.51.100.0/24"))
		ref := dnswire.NewTXTResponse(q, txts[0])
		for _, s := range txts[1:] {
			ref.Answers = append(ref.Answers, dnswire.Record{
				Name: q.Question().Name, Class: q.Question().Class,
				Data: dnswire.TXTRData{Strings: []string{s}},
			})
		}
		resps, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(q), netsim.ExchangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resps[0].Payload, dnswire.MustPack(ref); !bytes.Equal(got, want) {
			t.Errorf("answer set %d:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestPersonaTXTTooLongServfails: a persona string too long for one
// character-string cannot be encoded; the client gets SERVFAIL, as it
// did when the response Message failed to pack.
func TestPersonaTXTTooLongServfails(t *testing.T) {
	w := buildDNSWorld(t)
	w.resolver.Persona = ChaosPersona{Version: fmt.Sprintf("%0300d", 0)}
	resps, err := w.client.Exchange(w.net, ap("10.53.0.53:53"), dnswire.MustPack(dnswire.NewChaosTXTQuery(7, "version.bind")), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(resps[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeServerFailure || m.Header.ID != 7 || len(m.Answers) != 0 {
		t.Errorf("oversized persona answered %s", m)
	}
}

// legacyReferral is the referral as the auth server built it before
// Delegate precomputed it: NS records in Delegation.NS order, then glue
// sorted by canonical host name, sorting and boxing on every referral.
// It is the reference of TestReferralWireIdentity.
func legacyReferral(resp *dnswire.Message, cut dnswire.Name, ns map[dnswire.Name][]netip.Addr) {
	names := make([]dnswire.Name, 0, len(ns))
	for host := range ns {
		names = append(names, host)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	glue := make(map[dnswire.Name][]netip.Addr)
	for _, host := range names {
		resp.Authority = append(resp.Authority, dnswire.Record{
			Name: cut, Class: dnswire.ClassINET, TTL: 172800,
			Data: dnswire.NSRData{Host: host},
		})
		glue[host.Canonical()] = ns[host]
	}
	hosts := make([]dnswire.Name, 0, len(glue))
	for host := range glue {
		hosts = append(hosts, host)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, host := range hosts {
		for _, a := range glue[host] {
			var data dnswire.RData
			if a.Is4() {
				data = dnswire.ARData{Addr: a}
			} else {
				data = dnswire.AAAARData{Addr: a}
			}
			resp.Additional = append(resp.Additional, dnswire.Record{
				Name: host, Class: dnswire.ClassINET, TTL: 172800, Data: data,
			})
		}
	}
}

// TestReferralWireIdentity: a referral answered from the delegation's
// precomputed sections packs to the bytes the per-referral builder
// produced, for mixed-case hosts, v4 and v6 glue and a glueless
// nameserver, and stays so when asked again.
func TestReferralWireIdentity(t *testing.T) {
	delegations := map[dnswire.Name]map[dnswire.Name][]netip.Addr{
		"com": {
			"b.gtld-servers.net": {netip.MustParseAddr("192.33.14.30"), netip.MustParseAddr("2001:503:231d::2:30")},
			"A.GTLD-servers.net": {netip.MustParseAddr("192.5.6.30")},
			"c.gtld-servers.net": nil,
		},
		"Example.ORG": {"ns1.example.org": {netip.MustParseAddr("198.51.100.53")}},
	}
	root := NewZone("")
	for cut, ns := range delegations {
		root.Delegate(cut, ns)
	}
	s := NewAuthServer(root)
	pkt := netsim.Packet{Src: netip.MustParseAddrPort("192.0.2.1:5353")}
	for cut, ns := range delegations {
		for i, name := range []dnswire.Name{"www." + cut, "deep.sub." + cut} {
			query := dnswire.NewQuery(uint16(40+i), name, dnswire.TypeA, dnswire.ClassINET)
			want := dnswire.NewResponse(query, dnswire.RCodeSuccess)
			legacyReferral(want, cut, ns)
			for round := 0; round < 2; round++ {
				got := s.handle(query, pkt)
				if !bytes.Equal(dnswire.MustPack(got), dnswire.MustPack(want)) {
					t.Fatalf("%s round %d:\ngot  %v\nwant %v", name, round, got, want)
				}
			}
		}
	}
}

// TestUpstreamQueryWireIdentity: the iterative query the resolver
// writes with AppendQuery is the one NewQuery, a cleared RD bit,
// SetEDNS and Pack built, with and without DNSSEC.
func TestUpstreamQueryWireIdentity(t *testing.T) {
	for _, dnssec := range []bool{false, true} {
		r := NewRecursiveResolver(netip.MustParseAddr("192.0.2.53"))
		r.DNSSECAware = dnssec
		for i, q := range []dnswire.Question{
			{Name: "o-o.myaddr.l.google.com", Type: dnswire.TypeTXT, Class: dnswire.ClassINET},
			{Name: "Whoami.Akamai.com", Type: dnswire.TypeA, Class: dnswire.ClassINET},
			{Name: "com", Type: dnswire.TypeDNSKEY, Class: dnswire.ClassINET},
		} {
			m := dnswire.NewQuery(uint16(i+1), q.Name, q.Type, q.Class)
			m.Header.RecursionDesired = false
			if dnssec {
				m.SetEDNS(4096, true)
			}
			got, err := r.upstreamQuery(uint16(i+1), q)
			if err != nil || !bytes.Equal(got, dnswire.MustPack(m)) {
				t.Errorf("dnssec=%t %s: AppendQuery %x (%v), legacy %x", dnssec, q.Name, got, err, dnswire.MustPack(m))
			}
		}
	}
}
