package core

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/bogon"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// TestPlanMatchesMessages pins each config's compiled plan to the
// queries the detector built one Message at a time: the location
// targets in the same order, and every entry's wire (with an ID
// patched in) and Message equal to the builders' for that ID.
func TestPlanMatchesMessages(t *testing.T) {
	for _, d := range []*Detector{
		{},
		{QueryV6: true},
		{Resolvers: []publicdns.ID{publicdns.OpenDNS, publicdns.Google}, QueryV6: true},
		{CanaryName: "canary.example", BogonV4: netip.MustParseAddr("192.0.2.9"), BogonV6: netip.MustParseAddr("2001:db8::9")},
	} {
		p := d.plan()
		check := func(what string, q *planQuery, legacy func(uint16) *dnswire.Message) {
			t.Helper()
			for _, id := range []uint16{0, 1, 0xBEEF} {
				want := legacy(id)
				if got := q.appendWire(nil, id); !bytes.Equal(got, dnswire.MustPack(want)) {
					t.Errorf("%+v %s id %d: wire %x, builder %x", d, what, id, got, dnswire.MustPack(want))
				}
				if got := q.message(id); !reflect.DeepEqual(got, want) {
					t.Errorf("%+v %s id %d: message %v, builder %v", d, what, id, got, want)
				}
			}
		}
		var want []locationTarget
		for _, id := range d.resolvers() {
			cfg := publicdns.Lookup(id)
			servers := append([]netip.Addr{}, cfg.V4...)
			if d.QueryV6 {
				servers = append(servers, cfg.V6...)
			}
			for _, s := range servers {
				want = append(want, locationTarget{op: cfg, server: netip.AddrPortFrom(s, 53)})
			}
		}
		if len(p.location) != len(want) {
			t.Fatalf("%+v: %d location targets, want %d", d, len(p.location), len(want))
		}
		for i, tgt := range p.location {
			if tgt.op != want[i].op || tgt.server != want[i].server {
				t.Errorf("%+v: target %d is %s %s, want %s %s", d, i, tgt.op.ID, tgt.server, want[i].op.ID, want[i].server)
			}
			check("location "+tgt.server.String(), tgt.query, tgt.op.Location.Message)
		}
		canary := d.CanaryName
		if canary == "" {
			canary = publicdns.CanaryDomain
		}
		check("version.bind", p.versionBind, func(id uint16) *dnswire.Message { return dnswire.NewChaosTXTQuery(id, "version.bind") })
		check("whoami", p.whoami, func(id uint16) *dnswire.Message {
			return dnswire.NewQuery(id, publicdns.WhoamiDomain, dnswire.TypeA, dnswire.ClassINET)
		})
		check("bogon A", p.bogonA, func(id uint16) *dnswire.Message {
			return dnswire.NewQuery(id, canary, dnswire.TypeA, dnswire.ClassINET)
		})
		check("bogon AAAA", p.bogonAAAA, func(id uint16) *dnswire.Message {
			return dnswire.NewQuery(id, canary, dnswire.TypeAAAA, dnswire.ClassINET)
		})
		b4, b6 := d.BogonV4, d.BogonV6
		if !b4.IsValid() {
			b4, b6 = bogon.ProbeV4, bogon.ProbeV6
		}
		if p.bogonV4 != netip.AddrPortFrom(b4, 53) || p.bogonV6 != netip.AddrPortFrom(b6, 53) {
			t.Errorf("%+v: bogons %s %s", d, p.bogonV4, p.bogonV6)
		}
	}
}

// TestDefaultPlanShared: detectors of the default config share one
// compiled plan per QueryV6 setting; any other config compiles its own.
func TestDefaultPlanShared(t *testing.T) {
	if (&Detector{}).plan() != (&Detector{Parallel: true}).plan() ||
		(&Detector{QueryV6: true}).plan() != (&Detector{QueryV6: true, DriftRounds: 2}).plan() {
		t.Error("default config compiled twice")
	}
	if (&Detector{}).plan() == (&Detector{QueryV6: true}).plan() {
		t.Error("QueryV6 shares the v4-only plan")
	}
	if d := (&Detector{CanaryName: "canary.example"}); d.plan() == defaultPlans()[0] {
		t.Error("custom canary uses the default plan")
	}
	if n := testing.AllocsPerRun(10, func() { (&Detector{QueryV6: true}).plan() }); n != 0 {
		t.Errorf("default plan lookup allocates %.0f", n)
	}
}
