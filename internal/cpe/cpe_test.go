package cpe

import (
	"net/netip"
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

func addr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix  { return netip.MustParsePrefix(s) }
func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func baseConfig() Config {
	return NewPlain("test-cpe", pfx("192.168.1.0/24"), addr("96.120.1.1"), ap("96.120.0.53:53"))
}

func TestInterceptSpecMatching(t *testing.T) {
	g := addr("8.8.8.8")
	cf := addr("1.1.1.1")
	cases := []struct {
		name string
		spec InterceptSpec
		dst  netip.Addr
		want bool
	}{
		{"all-v4 matches anything", InterceptSpec{AllV4: true}, g, true},
		{"targets hit", InterceptSpec{TargetsV4: []netip.Addr{g}}, g, true},
		{"targets miss", InterceptSpec{TargetsV4: []netip.Addr{cf}}, g, false},
		{"empty spec", InterceptSpec{}, g, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.spec.matchesV4(c.dst); got != c.want {
				t.Errorf("matchesV4(%s) = %t, want %t", c.dst, got, c.want)
			}
		})
	}
	v6 := addr("2001:4860:4860::8888")
	if !(InterceptSpec{TargetsV6: []netip.Addr{v6}}).matchesV6(v6) {
		t.Error("TargetsV6 missed")
	}
	if (InterceptSpec{AllV4: true}).matchesV6(v6) {
		t.Error("AllV4 matched v6")
	}
}

func TestInterceptSpecActive(t *testing.T) {
	if (InterceptSpec{}).Active() {
		t.Error("zero spec active")
	}
	for _, s := range []InterceptSpec{
		{AllV4: true},
		{TargetsV4: []netip.Addr{addr("8.8.8.8")}},
		{TargetsV6: []netip.Addr{addr("2001:db8::1")}},
	} {
		if !s.Active() {
			t.Errorf("spec %+v not active", s)
		}
	}
}

func TestBuildPlainClosesWANPort(t *testing.T) {
	d := Build(baseConfig())
	if _, open := d.Router.BoundService(addr("96.120.1.1"), 53); open {
		t.Error("plain CPE serves DNS on its WAN address")
	}
	if _, open := d.Router.BoundService(addr("192.168.1.1"), 53); !open {
		t.Error("plain CPE does not serve its LAN")
	}
}

func TestBuildOpenForwarderOpensWANPort(t *testing.T) {
	cfg := baseConfig()
	cfg.WANPort53Open = true
	d := Build(cfg)
	if _, open := d.Router.BoundService(addr("96.120.1.1"), 53); !open {
		t.Error("open-forwarder CPE has WAN port 53 closed")
	}
}

func TestAttachHostAllocatesDistinctAddrs(t *testing.T) {
	cfg := baseConfig()
	cfg.LANAddr6 = addr("2601:db00:0:101::1")
	cfg.LANPrefix6 = pfx("2601:db00:0:101::/64")
	cfg.WANAddr6 = addr("2601:db00:0:101::")
	d := Build(cfg)
	h0 := d.AttachHost("h0", 0)
	h1 := d.AttachHost("h1", 1)
	if h0.Addr4 == h1.Addr4 {
		t.Errorf("hosts share v4 address %s", h0.Addr4)
	}
	if h0.Addr6 == h1.Addr6 {
		t.Errorf("hosts share v6 address %s", h0.Addr6)
	}
	if h0.Addr4 != addr("192.168.1.2") {
		t.Errorf("first host = %s", h0.Addr4)
	}
	if !cfg.LANPrefix6.Contains(h0.Addr6) {
		t.Errorf("host v6 %s outside LAN prefix", h0.Addr6)
	}
}

func TestInterceptionDNATDeliversToForwarder(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	cfg.Intercept = InterceptSpec{AllV4: true}
	d := Build(cfg)
	host := d.AttachHost("h", 0)
	// No upstream wired: the forwarder answers version.bind locally.
	vb := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		7, 'v', 'e', 'r', 's', 'i', 'o', 'n', 4, 'b', 'i', 'n', 'd', 0, 0, 16, 0, 3}
	resps, err := host.Exchange(net, ap("9.9.9.9:53"), vb, netsim.ExchangeOptions{})
	if err != nil {
		t.Fatalf("intercepted version.bind: %v", err)
	}
	if resps[0].Src != ap("9.9.9.9:53") {
		t.Errorf("source = %s, want spoofed 9.9.9.9:53", resps[0].Src)
	}
}

func TestFirstHost(t *testing.T) {
	if firstHost(pfx("10.1.2.0/24")) != addr("10.1.2.1") {
		t.Error("v4 firstHost wrong")
	}
	if firstHost(pfx("2001:db8::/64")) != addr("2001:db8::1") {
		t.Error("v6 firstHost wrong")
	}
}

func TestDeviceString(t *testing.T) {
	d := Build(baseConfig())
	if !strings.Contains(d.String(), "plain") {
		t.Errorf("String = %q", d)
	}
	cfg := baseConfig()
	cfg.Intercept = InterceptSpec{AllV4: true}
	if s := Build(cfg).String(); !strings.Contains(s, "intercepting") {
		t.Errorf("String = %q", s)
	}
	cfg = baseConfig()
	cfg.WANPort53Open = true
	if s := Build(cfg).String(); !strings.Contains(s, "open-forwarder") {
		t.Errorf("String = %q", s)
	}
}
