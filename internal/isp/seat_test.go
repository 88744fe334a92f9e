package isp

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// TestSeatCPE pins what each kind of seat compiles to on a dual-stack
// home: the persona, the WAN port, and which destinations the CPE's
// DNAT rules cover.
func TestSeatCPE(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	home := n.AllocHome(n.AddSegment(nil), true)
	google := publicdns.Lookup(publicdns.Google)
	cases := []struct {
		name    string
		seat    *Seat
		persona dnsserver.ChaosPersona
		open    bool
		spec    cpe.InterceptSpec
	}{
		{"clean", nil, dnsserver.PersonaDnsmasq, false, cpe.InterceptSpec{}},
		{"xb6", &Seat{Loc: LocCPE, Persona: &dnsserver.PersonaDnsmasqOld}, dnsserver.PersonaDnsmasqOld, false,
			cpe.InterceptSpec{AllV4: true}},
		{"pihole", &Seat{Loc: LocCPE, Persona: &dnsserver.PersonaPiHole}, dnsserver.PersonaPiHole, false,
			cpe.InterceptSpec{AllV4: true}},
		// A selective CPE's DNAT misses its own address, so its forwarder
		// answers on the WAN side.
		{"selective", &Seat{Loc: LocCPE, PatternV4: []publicdns.ID{publicdns.Google}, PatternV6: []publicdns.ID{publicdns.Google}},
			dnsserver.PersonaDnsmasq, true, cpe.InterceptSpec{TargetsV4: google.V4, TargetsV6: google.V6}},
		{"open-forwarder", &Seat{WANPort53Open: true}, dnsserver.PersonaDnsmasq, true, cpe.InterceptSpec{}},
		// An in-AS seat's CPE does not intercept, whatever its forwarder.
		{"isp", &Seat{Loc: LocISPHidden, Persona: &dnsserver.PersonaSilent, WANPort53Open: true, ForwardUnhandledChaos: true},
			dnsserver.PersonaSilent, true, cpe.InterceptSpec{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			adv := &dnsserver.Adversary{}
			cfg := c.seat.CPE("cpe", n, home, dnsserver.EncTerminate, adv)
			if cfg.LANAddr != addr("192.168.1.1") || cfg.WANAddr != home.WANv4 || cfg.Upstream != n.ResolverAddrPort() {
				t.Errorf("addressing = LAN %s WAN %s upstream %s", cfg.LANAddr, cfg.WANAddr, cfg.Upstream)
			}
			if cfg.LANAddr6 != hostInPrefix6(home.LANPrefix6, 1) || cfg.WANAddr6 != home.WANv6 {
				t.Errorf("v6 addressing = LAN %s WAN %s", cfg.LANAddr6, cfg.WANAddr6)
			}
			if cfg.Persona != c.persona || cfg.WANPort53Open != c.open {
				t.Errorf("persona %+v open %v, want %+v %v", cfg.Persona, cfg.WANPort53Open, c.persona, c.open)
			}
			if !reflect.DeepEqual(cfg.Intercept, c.spec) {
				t.Errorf("intercept = %+v, want %+v", cfg.Intercept, c.spec)
			}
			// Only an intercepting CPE evades fingerprinting and polices
			// encrypted DNS.
			if intercepts := c.spec.Active(); (cfg.Adversary == adv) != intercepts || (cfg.Encrypted == dnsserver.EncTerminate) != intercepts {
				t.Errorf("adversary %v encrypted %v for an intercepting=%v seat", cfg.Adversary, cfg.Encrypted, intercepts)
			}
		})
	}
}

// TestSeatMiddlebox pins the segment middlebox each seat compiles to.
func TestSeatMiddlebox(t *testing.T) {
	quad9, opendns := publicdns.Lookup(publicdns.Quad9), publicdns.Lookup(publicdns.OpenDNS)
	cf := publicdns.Lookup(publicdns.Cloudflare)
	cases := []struct {
		name string
		seat *Seat
		want *MiddleboxSpec
	}{
		{"clean", nil, nil},
		{"cpe", &Seat{Loc: LocCPE}, nil},
		{"transit", &Seat{Loc: LocTransit}, nil},
		{"isp", &Seat{Loc: LocISP}, &MiddleboxSpec{Rules: []MiddleboxRule{{All: true}}, InterceptBogons: true}},
		{"isp-hidden", &Seat{Loc: LocISPHidden}, &MiddleboxSpec{Rules: []MiddleboxRule{{All: true}}}},
		{"refuse-all", &Seat{Loc: LocISP, Refuse: RefuseAll},
			&MiddleboxSpec{Rules: []MiddleboxRule{{All: true, UseRefusing: true}}, InterceptBogons: true}},
		{"refuse-subset", &Seat{Loc: LocISP, Refuse: RefuseSubset}, &MiddleboxSpec{Rules: []MiddleboxRule{
			{Targets: append(append([]netip.Addr{}, quad9.V4...), opendns.V4...), UseRefusing: true},
			{All: true},
		}, InterceptBogons: true}},
		{"replicate", &Seat{Loc: LocISP, Replicate: true},
			&MiddleboxSpec{Rules: []MiddleboxRule{{All: true, Replicate: true}}, InterceptBogons: true}},
		{"pattern-v6-only", &Seat{Loc: LocISP, V4None: true, PatternV6: []publicdns.ID{publicdns.Cloudflare}},
			&MiddleboxSpec{Rules: []MiddleboxRule{{Targets: cf.V6, V6: true}}, InterceptBogons: true}},
		{"pattern-both", &Seat{Loc: LocISPHidden, PatternV4: []publicdns.ID{publicdns.Cloudflare}, PatternV6: []publicdns.ID{publicdns.Cloudflare}},
			&MiddleboxSpec{Rules: []MiddleboxRule{{Targets: cf.V4}, {Targets: cf.V6, V6: true}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.seat.Middlebox(dnsserver.EncPass)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("middlebox = %+v, want %+v", got, c.want)
			}
		})
	}
	if mb := (&Seat{Loc: LocISP}).Middlebox(dnsserver.EncBlock); mb.Encrypted != dnsserver.EncBlock {
		t.Errorf("segment encrypted policy = %v, want block", mb.Encrypted)
	}
}
