package backbone

import (
	"errors"
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/bogon"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// home is a fully-wired test home: backbone + one ISP + one CPE + probe.
type home struct {
	net   *netsim.Network
	bb    *Backbone
	isp   *isp.Network
	cpe   *cpe.Device
	probe *netsim.Host
	addrs isp.HomeAddrs
}

// buildHome assembles a home. mutate may adjust the CPE config before it
// is built; mb configures the segment middlebox.
func buildHome(t *testing.T, mb *isp.MiddleboxSpec, mutate func(*cpe.Config)) *home {
	t.Helper()
	h := &home{net: netsim.NewNetwork()}
	h.bb = Build(h.net)
	h.isp = h.bb.AttachISP(isp.Config{
		ASN:             7922,
		Name:            "Comcast",
		Country:         "US",
		Region:          publicdns.RegionNA,
		PrefixV4:        netip.MustParsePrefix("96.120.0.0/16"),
		PrefixV6:        netip.MustParsePrefix("2601:db00::/48"),
		ResolverPersona: dnsserver.PersonaUnbound,
	})
	seg := h.isp.AddSegment(mb)
	h.addrs = h.isp.AllocHome(seg, true)
	cfg := cpe.NewPlain("home-cpe", h.addrs.LANPrefix4, h.addrs.WANv4, h.isp.ResolverAddrPort())
	cfg.LANAddr6 = firstV6(h.addrs.LANPrefix6)
	cfg.LANPrefix6 = h.addrs.LANPrefix6
	cfg.WANAddr6 = h.addrs.WANv6
	if mutate != nil {
		mutate(&cfg)
	}
	h.cpe = cpe.Build(cfg)
	h.isp.AttachCPE(seg, h.cpe, h.addrs)
	h.probe = h.cpe.AttachHost("probe", 0)
	return h
}

func firstV6(p netip.Prefix) netip.Addr {
	a := p.Addr().As16()
	a[15] |= 1
	return netip.AddrFrom16(a)
}

// ask sends one DNS message to dst and returns the parsed answer.
func (h *home) ask(t *testing.T, dst netip.Addr, m *dnswire.Message) (*dnswire.Message, error) {
	t.Helper()
	resps, err := h.probe.Exchange(h.net, netip.AddrPortFrom(dst, 53), dnswire.MustPack(m), netsim.ExchangeOptions{})
	if err != nil {
		return nil, err
	}
	parsed, err := dnswire.Unpack(resps[0].Payload)
	if err != nil {
		t.Fatalf("unpack response: %v", err)
	}
	return parsed, nil
}

func TestCleanHomeLocationQueriesAreStandard(t *testing.T) {
	h := buildHome(t, nil, nil)
	for _, id := range publicdns.All {
		c := publicdns.Lookup(id)
		for _, dst := range c.V4 {
			m, err := h.ask(t, dst, c.Location.Message(1))
			if err != nil {
				t.Fatalf("%s %s: %v", id, dst, err)
			}
			answer, ok := m.FirstTXT()
			if !ok {
				t.Fatalf("%s %s: no TXT in %s", id, dst, m)
			}
			if !c.ValidateLocationAnswer(answer) {
				t.Errorf("%s %s: answer %q not standard", id, dst, answer)
			}
		}
		for _, dst := range c.V6 {
			m, err := h.ask(t, dst, c.Location.Message(2))
			if err != nil {
				t.Fatalf("%s %s (v6): %v", id, dst, err)
			}
			if answer, _ := m.FirstTXT(); !c.ValidateLocationAnswer(answer) {
				t.Errorf("%s %s (v6): answer %q not standard", id, dst, answer)
			}
		}
	}
}

func TestCleanHomeWhoamiReturnsOperatorEgress(t *testing.T) {
	h := buildHome(t, nil, nil)
	for _, id := range publicdns.All {
		c := publicdns.Lookup(id)
		q := dnswire.NewQuery(3, publicdns.WhoamiDomain, dnswire.TypeA, dnswire.ClassINET)
		m, err := h.ask(t, c.V4[0], q)
		if err != nil {
			t.Fatalf("%s whoami: %v", id, err)
		}
		if len(m.Answers) != 1 {
			t.Fatalf("%s whoami: %s", id, m)
		}
		got := m.Answers[0].Data.(dnswire.ARData).Addr
		if !c.InEgress(got) {
			t.Errorf("%s whoami = %s, not in operator egress", id, got)
		}
	}
}

func TestCleanHomeBogonQueriesTimeOut(t *testing.T) {
	h := buildHome(t, nil, nil)
	q := dnswire.NewQuery(4, publicdns.CanaryDomain, dnswire.TypeA, dnswire.ClassINET)
	if _, err := h.ask(t, bogon.ProbeV4, q); !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("v4 bogon query: err = %v, want timeout", err)
	}
	if _, err := h.ask(t, bogon.ProbeV6, q); !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("v6 bogon query: err = %v, want timeout", err)
	}
}

func TestCleanHomeCPEVersionBindTimesOut(t *testing.T) {
	h := buildHome(t, nil, nil)
	vb := dnswire.NewChaosTXTQuery(5, "version.bind")
	if _, err := h.ask(t, h.addrs.WANv4, vb); !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("version.bind to closed CPE WAN port: err = %v, want timeout", err)
	}
}

func TestXB6HomeInterceptsEverything(t *testing.T) {
	h := buildHome(t, nil, func(cfg *cpe.Config) {
		cfg.Persona = dnsserver.PersonaDnsmasqOld
		cfg.Intercept = cpe.InterceptSpec{AllV4: true}
	})

	// Location queries come back non-standard: the ISP resolver answers.
	cf := publicdns.Lookup(publicdns.Cloudflare)
	m, err := h.ask(t, cf.V4[0], cf.Location.Message(6))
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := m.FirstTXT()
	if cf.ValidateLocationAnswer(answer) {
		t.Errorf("intercepted id.server answer %q still standard", answer)
	}

	// version.bind: CPE public IP and all resolvers agree — the §3.2
	// signature of CPE interception.
	vb := dnswire.NewChaosTXTQuery(7, "version.bind")
	mCPE, err := h.ask(t, h.addrs.WANv4, vb)
	if err != nil {
		t.Fatalf("version.bind to CPE WAN: %v", err)
	}
	wantStr, _ := mCPE.FirstTXT()
	if wantStr != "dnsmasq-2.78" {
		t.Fatalf("CPE version.bind = %q", wantStr)
	}
	for _, id := range publicdns.All {
		c := publicdns.Lookup(id)
		mr, err := h.ask(t, c.V4[0], dnswire.NewChaosTXTQuery(8, "version.bind"))
		if err != nil {
			t.Fatalf("%s version.bind: %v", id, err)
		}
		got, _ := mr.FirstTXT()
		if got != wantStr {
			t.Errorf("%s version.bind = %q, want CPE string %q", id, got, wantStr)
		}
	}

	// whoami resolves correctly (transparent) but via the ISP resolver.
	q := dnswire.NewQuery(9, publicdns.WhoamiDomain, dnswire.TypeA, dnswire.ClassINET)
	m, err = h.ask(t, cf.V4[0], q)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Answers[0].Data.(dnswire.ARData).Addr
	if got != h.isp.ResolverAddr {
		t.Errorf("whoami = %s, want ISP resolver egress %s", got, h.isp.ResolverAddr)
	}

	// Spoofing: the response claimed to come from Cloudflare.
	resps, err := h.probe.Exchange(h.net,
		netip.AddrPortFrom(cf.V4[0], 53),
		dnswire.MustPack(dnswire.NewQuery(10, "google.com", dnswire.TypeA, dnswire.ClassINET)),
		netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Src.Addr() != cf.V4[0] {
		t.Errorf("response source = %s, want spoofed %s", resps[0].Src.Addr(), cf.V4[0])
	}

	// IPv6 is NOT intercepted by the XB6 (Table 4's v4/v6 asymmetry).
	m, err = h.ask(t, cf.V6[0], cf.Location.Message(11))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); !cf.ValidateLocationAnswer(answer) {
		t.Errorf("v6 id.server %q should be standard on an XB6 home", answer)
	}
}

func TestISPMiddleboxInterception(t *testing.T) {
	mb := &isp.MiddleboxSpec{
		Rules:           []isp.MiddleboxRule{{All: true}},
		InterceptBogons: true,
	}
	h := buildHome(t, mb, nil)

	// Location query diverted to the ISP resolver.
	g := publicdns.Lookup(publicdns.Google)
	m, err := h.ask(t, g.V4[0], g.Location.Message(12))
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := m.FirstTXT()
	if g.ValidateLocationAnswer(answer) {
		t.Errorf("intercepted myaddr answer %q still standard", answer)
	}
	// The alternate resolver really recursed: the echoed address is the
	// ISP resolver egress.
	if answer != h.isp.ResolverAddr.String() {
		t.Errorf("myaddr echo = %q, want ISP resolver %s", answer, h.isp.ResolverAddr)
	}

	// version.bind to the CPE public IP times out (CPE clean, port
	// filtered); to resolvers it gets the ISP resolver persona. That
	// mismatch rules out the CPE.
	vb := dnswire.NewChaosTXTQuery(13, "version.bind")
	if _, err := h.ask(t, h.addrs.WANv4, vb); !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("CPE version.bind err = %v, want timeout", err)
	}
	mr, err := h.ask(t, g.V4[0], dnswire.NewChaosTXTQuery(14, "version.bind"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := mr.FirstTXT(); got != "unbound 1.9.0" {
		t.Errorf("resolver version.bind via middlebox = %q", got)
	}

	// Bogon query answered: interception is inside the ISP (§3.3).
	q := dnswire.NewQuery(15, publicdns.CanaryDomain, dnswire.TypeA, dnswire.ClassINET)
	m, err = h.ask(t, bogon.ProbeV4, q)
	if err != nil {
		t.Fatalf("bogon query: %v", err)
	}
	if len(m.Answers) == 0 || m.Answers[0].Data.(dnswire.ARData).Addr != publicdns.CanaryAnswer {
		t.Errorf("bogon query answer = %s", m)
	}
}

func TestISPMiddleboxThatIgnoresBogons(t *testing.T) {
	mb := &isp.MiddleboxSpec{
		Rules: []isp.MiddleboxRule{{All: true}},
		// InterceptBogons false: bogon queries pass the middlebox and die
		// at the border — the "unknown location" outcome.
	}
	h := buildHome(t, mb, nil)
	q := dnswire.NewQuery(16, publicdns.CanaryDomain, dnswire.TypeA, dnswire.ClassINET)
	if _, err := h.ask(t, bogon.ProbeV4, q); !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("bogon query err = %v, want timeout", err)
	}
}

func TestMiddleboxRefusingResolver(t *testing.T) {
	mb := &isp.MiddleboxSpec{
		Rules: []isp.MiddleboxRule{{All: true, UseRefusing: true}},
	}
	h := buildHome(t, mb, nil)
	g := publicdns.Lookup(publicdns.Google)
	m, err := h.ask(t, g.V4[0], g.Location.Message(17))
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s, want REFUSED (status-modified interceptor)", m.Header.RCode)
	}
}

func TestMiddleboxSelectiveTargets(t *testing.T) {
	g := publicdns.Lookup(publicdns.Google)
	cf := publicdns.Lookup(publicdns.Cloudflare)
	mb := &isp.MiddleboxSpec{
		Rules: []isp.MiddleboxRule{{Targets: g.V4}}, // only Google intercepted
	}
	h := buildHome(t, mb, nil)
	m, err := h.ask(t, g.V4[0], g.Location.Message(18))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); g.ValidateLocationAnswer(answer) {
		t.Error("google should be intercepted")
	}
	m, err = h.ask(t, cf.V4[0], cf.Location.Message(19))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); !cf.ValidateLocationAnswer(answer) {
		t.Errorf("cloudflare answer %q should be standard", answer)
	}
}

func TestOpenForwarderCPEAnswersButIsNotInterceptor(t *testing.T) {
	h := buildHome(t, nil, func(cfg *cpe.Config) {
		cfg.WANPort53Open = true
	})
	// version.bind to the CPE public IP answers with the CPE persona...
	vb := dnswire.NewChaosTXTQuery(20, "version.bind")
	m, err := h.ask(t, h.addrs.WANv4, vb)
	if err != nil {
		t.Fatal(err)
	}
	cpeStr, _ := m.FirstTXT()
	if cpeStr != "dnsmasq-2.85" {
		t.Fatalf("CPE version.bind = %q", cpeStr)
	}
	// ...but resolver-bound version.bind reaches the real operators:
	// Quad9 answers its own string, others NOTIMP. No match with the CPE
	// string, so the CPE is correctly not implicated.
	q9 := publicdns.Lookup(publicdns.Quad9)
	mr, err := h.ask(t, q9.V4[0], dnswire.NewChaosTXTQuery(21, "version.bind"))
	if err != nil {
		t.Fatal(err)
	}
	q9Str, _ := mr.FirstTXT()
	if q9Str == cpeStr {
		t.Errorf("quad9 and CPE version.bind both %q; test world misconfigured", q9Str)
	}
	if q9Str != "Q9-P-7.5" {
		t.Errorf("quad9 version.bind = %q", q9Str)
	}
	cf := publicdns.Lookup(publicdns.Cloudflare)
	mr, err = h.ask(t, cf.V4[0], dnswire.NewChaosTXTQuery(22, "version.bind"))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Header.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("cloudflare version.bind rcode = %s, want NOTIMP", mr.Header.RCode)
	}
}

func TestAnycastSelectsRegionalSite(t *testing.T) {
	// A European ISP's probes reach the FRA site, not IAD.
	h := &home{net: netsim.NewNetwork()}
	h.bb = Build(h.net)
	h.isp = h.bb.AttachISP(isp.Config{
		ASN: 3320, Name: "Deutsche Telekom", Country: "DE",
		Region:          publicdns.RegionEU,
		PrefixV4:        netip.MustParsePrefix("91.0.0.0/16"),
		ResolverPersona: dnsserver.PersonaPowerDNS,
	})
	seg := h.isp.AddSegment(nil)
	h.addrs = h.isp.AllocHome(seg, false)
	cfg := cpe.NewPlain("de-cpe", h.addrs.LANPrefix4, h.addrs.WANv4, h.isp.ResolverAddrPort())
	h.cpe = cpe.Build(cfg)
	h.isp.AttachCPE(seg, h.cpe, h.addrs)
	h.probe = h.cpe.AttachHost("de-probe", 0)

	cf := publicdns.Lookup(publicdns.Cloudflare)
	m, err := h.ask(t, cf.V4[0], cf.Location.Message(23))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); answer != "FRA" {
		t.Errorf("EU probe got site %q, want FRA", answer)
	}
}

func TestCPEIntercepted6(t *testing.T) {
	// A CPE that also intercepts v6 traffic to Google.
	g := publicdns.Lookup(publicdns.Google)
	h := buildHome(t, nil, func(cfg *cpe.Config) {
		cfg.Persona = dnsserver.PersonaDnsmasq
		cfg.Intercept = cpe.InterceptSpec{AllV4: true, TargetsV6: g.V6}
	})
	m, err := h.ask(t, g.V6[0], g.Location.Message(24))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); g.ValidateLocationAnswer(answer) {
		t.Errorf("v6 google location answer %q should be intercepted", answer)
	}
	// Cloudflare v6 untouched.
	cf := publicdns.Lookup(publicdns.Cloudflare)
	m, err = h.ask(t, cf.V6[0], cf.Location.Message(25))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _ := m.FirstTXT(); !cf.ValidateLocationAnswer(answer) {
		t.Errorf("v6 cloudflare answer %q should be standard", answer)
	}
}
