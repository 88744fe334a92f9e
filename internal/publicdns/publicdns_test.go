package publicdns

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
)

func TestOperatorTableComplete(t *testing.T) {
	if len(All) != 4 {
		t.Fatalf("len(All) = %d", len(All))
	}
	for _, id := range All {
		c := Lookup(id)
		if len(c.V4) != 2 || len(c.V6) != 2 {
			t.Errorf("%s: want primary+secondary for both families", id)
		}
		if c.Location.Name == "" || c.ExampleResponse == "" {
			t.Errorf("%s: missing location query spec", id)
		}
		if !c.ValidateLocationAnswer(c.ExampleResponse) {
			t.Errorf("%s: own example response %q fails validation", id, c.ExampleResponse)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	// Table 1 of the paper, verbatim.
	want := map[ID]struct {
		kind QueryKind
		name dnswire.Name
	}{
		Cloudflare: {KindChaosTXT, "id.server"},
		Google:     {KindTXT, "o-o.myaddr.l.google.com"},
		Quad9:      {KindChaosTXT, "id.server"},
		OpenDNS:    {KindTXT, "debug.opendns.com"},
	}
	for id, w := range want {
		c := Lookup(id)
		if c.Location.Kind != w.kind || !c.Location.Name.Equal(w.name) {
			t.Errorf("%s location query = %s %s, want %s %s",
				id, c.Location.Kind, c.Location.Name, w.kind, w.name)
		}
	}
}

func TestLocationQueryMessages(t *testing.T) {
	m := Lookup(Cloudflare).Location.Message(7)
	if m.Question().Class != dnswire.ClassCHAOS {
		t.Error("Cloudflare location query not CHAOS")
	}
	m = Lookup(Google).Location.Message(8)
	if m.Question().Class != dnswire.ClassINET || !m.Header.RecursionDesired {
		t.Error("Google location query should be a plain recursive TXT query")
	}
}

func TestValidators(t *testing.T) {
	cases := []struct {
		id     ID
		answer string
		want   bool
	}{
		{Cloudflare, "IAD", true},
		{Cloudflare, "FRA", true},
		{Cloudflare, "NOTIMP", false}, // 6 letters, not an IATA code
		{Cloudflare, "routing.v2.pw", false},
		{Cloudflare, "iad", false},
		{Google, "172.253.226.35", true},
		{Google, "172.253.1.53", true},
		{Google, "62.183.62.69", false},
		{Google, "185.194.112.32", false},
		{Google, "not-an-ip", false},
		{Quad9, "res100.iad.rrdns.pch.net", true},
		{Quad9, "res205.fra.rrdns.pch.net", true},
		{Quad9, "unbound 1.9.0", false},
		{OpenDNS, "server m84.iad", true},
		{OpenDNS, "server m2.sin", true},
		{OpenDNS, "dnsmasq-2.85", false},
	}
	for _, c := range cases {
		if got := Lookup(c.id).ValidateLocationAnswer(c.answer); got != c.want {
			t.Errorf("%s validate(%q) = %t, want %t", c.id, c.answer, got, c.want)
		}
	}
}

func TestByAddr(t *testing.T) {
	c, ok := ByAddr(netip.MustParseAddr("9.9.9.9"))
	if !ok || c.ID != Quad9 {
		t.Errorf("ByAddr(9.9.9.9) = %v,%t", c, ok)
	}
	c, ok = ByAddr(netip.MustParseAddr("2606:4700:4700::1001"))
	if !ok || c.ID != Cloudflare {
		t.Errorf("ByAddr(cf v6 secondary) = %v,%t", c, ok)
	}
	if _, ok := ByAddr(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("ByAddr matched a non-operator address")
	}
	// The adversary calls it once per CHAOS query; a miss scans every
	// address in place.
	miss := netip.MustParseAddr("192.0.2.1")
	if n := testing.AllocsPerRun(10, func() { ByAddr(miss) }); n != 0 {
		t.Errorf("ByAddr allocates %.0f", n)
	}
}

func TestSitesCoverRegionsWithDistinctEgress(t *testing.T) {
	for _, id := range All {
		sites := Sites(id)
		if len(sites) != len(Regions) {
			t.Fatalf("%s has %d sites", id, len(sites))
		}
		c := Lookup(id)
		seen := map[netip.Addr]bool{}
		for _, s := range sites {
			if seen[s.EgressV4] || seen[s.EgressV6] {
				t.Errorf("%s: duplicate egress at %s", id, s.City)
			}
			seen[s.EgressV4], seen[s.EgressV6] = true, true
			if !c.InEgress(s.EgressV4) || !c.InEgress(s.EgressV6) {
				t.Errorf("%s %s: egress outside operator prefix", id, s.City)
			}
			if !s.EgressPrefixV4().Contains(s.EgressV4) || !s.EgressPrefixV6().Contains(s.EgressV6) {
				t.Errorf("%s %s: egress prefix doesn't contain egress", id, s.City)
			}
		}
	}
}

func TestSitePersonasMatchExpectedFormats(t *testing.T) {
	for _, id := range All {
		c := Lookup(id)
		for _, s := range Sites(id) {
			_, res := s.Build(netip.MustParseAddr("198.41.0.4"))
			// The site's own identity answer must validate as standard for
			// CHAOS-based operators.
			switch id {
			case Cloudflare, Quad9:
				if !c.ValidateLocationAnswer(res.Persona.Identity) {
					t.Errorf("%s %s identity %q not standard", id, s.City, res.Persona.Identity)
				}
			}
			if id == Quad9 && res.Persona.Version == "" {
				t.Errorf("Quad9 %s must answer version.bind", s.City)
			}
			if id != Quad9 && res.Persona.Version != "" {
				t.Errorf("%s %s must not answer version.bind", id, s.City)
			}
		}
	}
}

// hookResponse runs res's hook on q from src and returns the response
// the resolver sends, nil when the hook passes the query on.
func hookResponse(t *testing.T, res *dnsserver.RecursiveResolver, q *dnswire.Message, src netip.AddrPort) *dnswire.Message {
	t.Helper()
	wire := hookWire(t, res, q, src)
	if wire == nil {
		return nil
	}
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hookWire is hookResponse's wire form.
func hookWire(t *testing.T, res *dnsserver.RecursiveResolver, q *dnswire.Message, src netip.AddrPort) []byte {
	t.Helper()
	v, err := dnswire.ParseView(dnswire.MustPack(q))
	if err != nil {
		t.Fatal(err)
	}
	txts := res.Hook(v, src)
	if txts == nil {
		return nil
	}
	wire, err := v.AppendTXTResponse(nil, txts...)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestSiteHooksSynthesizeAnswers(t *testing.T) {
	gSite := Sites(Google)[0]
	_, res := gSite.Build(netip.MustParseAddr("198.41.0.4"))
	q := Lookup(Google).Location.Message(9)
	resp := hookResponse(t, res, q, netip.MustParseAddrPort("96.120.0.10:40000"))
	if resp == nil {
		t.Fatal("google hook did not answer")
	}
	s, _ := resp.FirstTXT()
	if !Lookup(Google).ValidateLocationAnswer(s) {
		t.Errorf("google myaddr answer %q not standard", s)
	}
	// v6 client gets a v6 egress.
	resp = hookResponse(t, res, q, netip.MustParseAddrPort("[2001:db8::1]:40000"))
	s, _ = resp.FirstTXT()
	if !strings.Contains(s, ":") {
		t.Errorf("v6 client got %q, want v6 egress", s)
	}

	oSite := Sites(OpenDNS)[1]
	_, ores := oSite.Build(netip.MustParseAddr("198.41.0.4"))
	oq := Lookup(OpenDNS).Location.Message(10)
	resp = hookResponse(t, ores, oq, netip.MustParseAddrPort("96.120.0.10:40000"))
	if resp == nil {
		t.Fatal("opendns hook did not answer")
	}
	s, _ = resp.FirstTXT()
	if !Lookup(OpenDNS).ValidateLocationAnswer(s) {
		t.Errorf("opendns debug answer %q not standard", s)
	}
	if !strings.Contains(s, ".fra") {
		t.Errorf("site 1 answer %q, want .fra (EU site)", s)
	}
	// Hooks ignore unrelated names.
	other := dnswire.NewQuery(11, "example.com", dnswire.TypeTXT, dnswire.ClassINET)
	if hookResponse(t, ores, other, netip.MustParseAddrPort("96.120.0.10:1")) != nil {
		t.Error("opendns hook answered unrelated query")
	}
}

// TestSiteHookWireIdentity: the site answers, written from the query's
// view, are byte for byte the Messages the hooks built before: Google's
// myaddr answer for v4 and v6 clients, with and without a client-subnet
// option, and OpenDNS's debug answer.
func TestSiteHookWireIdentity(t *testing.T) {
	google, opendns := Sites(Google)[2], Sites(OpenDNS)[3]
	_, gres := google.Build(netip.MustParseAddr("198.41.0.4"))
	_, ores := opendns.Build(netip.MustParseAddr("198.41.0.4"))
	txt := func(q *dnswire.Message, s string) dnswire.Record {
		return dnswire.Record{Name: q.Question().Name, Class: q.Question().Class, Data: dnswire.TXTRData{Strings: []string{s}}}
	}
	v4, v6 := netip.MustParseAddrPort("96.120.0.10:40000"), netip.MustParseAddrPort("[2001:db8::1]:40000")
	for _, c := range []struct {
		name  string
		res   *dnsserver.RecursiveResolver
		query func() *dnswire.Message
		src   netip.AddrPort
		want  func(q *dnswire.Message) *dnswire.Message
	}{
		{"google v4", gres, func() *dnswire.Message { return Lookup(Google).Location.Message(20) }, v4,
			func(q *dnswire.Message) *dnswire.Message { return dnswire.NewTXTResponse(q, google.EgressV4.String()) }},
		{"google v6", gres, func() *dnswire.Message { return Lookup(Google).Location.Message(21) }, v6,
			func(q *dnswire.Message) *dnswire.Message { return dnswire.NewTXTResponse(q, google.EgressV6.String()) }},
		{"google v4 ECS", gres, func() *dnswire.Message {
			q := dnswire.NewQuery(22, "O-O.MyAddr.l.google.com", dnswire.TypeTXT, dnswire.ClassINET)
			q.SetECS(netip.MustParsePrefix("198.51.100.0/24"))
			return q
		}, v4, func(q *dnswire.Message) *dnswire.Message {
			m := dnswire.NewTXTResponse(q, google.EgressV4.String())
			m.Answers = append(m.Answers, txt(q, "edns0-client-subnet 198.51.100.0/24"))
			return m
		}},
		{"google v6 ECS", gres, func() *dnswire.Message {
			q := Lookup(Google).Location.Message(23)
			q.Header.RecursionDesired = false
			q.SetECS(netip.MustParsePrefix("2001:db8:40::/48"))
			return q
		}, v6, func(q *dnswire.Message) *dnswire.Message {
			m := dnswire.NewTXTResponse(q, google.EgressV6.String())
			m.Answers = append(m.Answers, txt(q, "edns0-client-subnet 2001:db8:40::/48"))
			return m
		}},
		{"opendns", ores, func() *dnswire.Message { return Lookup(OpenDNS).Location.Message(24) }, v4,
			func(q *dnswire.Message) *dnswire.Message {
				m := dnswire.NewTXTResponse(q, fmt.Sprintf("server m%d.%s", 80+opendns.Index, opendns.City))
				m.Answers = append(m.Answers, txt(q, "flags 20 0 2F"))
				return m
			}},
	} {
		q := c.query()
		if got, want := hookWire(t, c.res, q, c.src), dnswire.MustPack(c.want(q)); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", c.name, got, want)
		}
	}
}

func TestRegionMapping(t *testing.T) {
	cases := map[string]Region{
		"US": RegionNA, "CA": RegionNA, "DE": RegionEU, "FR": RegionEU,
		"JP": RegionAS, "AU": RegionOC, "BR": RegionSA, "ZA": RegionAF,
		"??": RegionEU,
	}
	for cc, want := range cases {
		if got := RegionForCountry(cc); got != want {
			t.Errorf("RegionForCountry(%s) = %s, want %s", cc, got, want)
		}
	}
	for _, r := range Regions {
		if CityOf(r) == "" {
			t.Errorf("region %s has no city", r)
		}
	}
}

func TestSupportZones(t *testing.T) {
	// whoami echoes v4 sources into A records only.
	z := AkamaiZone()
	res, rrs, _ := z.Lookup(
		dnswire.Question{Name: WhoamiDomain, Type: dnswire.TypeA, Class: dnswire.ClassINET},
		netip.MustParseAddrPort("172.253.1.53:999"))
	if res != 0 /* LookupAnswer */ || len(rrs) != 1 {
		t.Fatalf("whoami lookup: res=%v rrs=%v", res, rrs)
	}
	if rrs[0].Data.(dnswire.ARData).Addr != netip.MustParseAddr("172.253.1.53") {
		t.Errorf("whoami echoed %v", rrs[0].Data)
	}

	// Google auth echoes any source into TXT.
	gz := GoogleAuthZone()
	_, rrs, _ = gz.Lookup(
		dnswire.Question{Name: "o-o.myaddr.l.google.com", Type: dnswire.TypeTXT, Class: dnswire.ClassINET},
		netip.MustParseAddrPort("96.121.0.53:999"))
	if len(rrs) != 1 || rrs[0].Data.(dnswire.TXTRData).Joined() != "96.121.0.53" {
		t.Errorf("google auth echo = %v", rrs)
	}

	// debug.opendns.com does not exist authoritatively.
	oz := OpenDNSAuthZone()
	res, _, _ = oz.Lookup(
		dnswire.Question{Name: "debug.opendns.com", Type: dnswire.TypeTXT, Class: dnswire.ClassINET},
		netip.MustParseAddrPort("96.121.0.53:999"))
	if res != 2 /* LookupNXDomain */ {
		t.Errorf("debug.opendns.com at auth: res=%v, want NXDomain", res)
	}

	// Canary zone resolves.
	cz := CanaryZone()
	_, rrs, _ = cz.Lookup(
		dnswire.Question{Name: CanaryDomain, Type: dnswire.TypeA, Class: dnswire.ClassINET},
		netip.MustParseAddrPort("96.121.0.53:999"))
	if len(rrs) != 1 || rrs[0].Data.(dnswire.ARData).Addr != CanaryAnswer {
		t.Errorf("canary = %v", rrs)
	}
}

func TestServicePrefixesCoverServiceAddrs(t *testing.T) {
	for _, id := range All {
		c := Lookup(id)
		for _, a := range append(append([]netip.Addr{}, c.V4...), c.V6...) {
			covered := false
			for _, p := range c.ServicePrefixes {
				if p.Contains(a) {
					covered = true
				}
			}
			if !covered {
				t.Errorf("%s: service address %s not covered by any service prefix", id, a)
			}
		}
		// Service and egress space must not overlap: replies from egress
		// addresses have to route distinctly from anycast queries.
		for _, p := range c.ServicePrefixes {
			if p.Overlaps(c.EgressPrefixV4) || p.Overlaps(c.EgressPrefixV6) {
				t.Errorf("%s: service prefix %s overlaps egress space", id, p)
			}
		}
	}
}
