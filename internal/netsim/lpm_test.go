package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// refRoute is the obviously-correct longest-prefix match: linear scan.
func refRoute(routes []Route, dst netip.Addr) *Route {
	var best *Route
	for i := range routes {
		if routes[i].Prefix.Contains(dst.Unmap()) {
			if best == nil || routes[i].Prefix.Bits() > best.Prefix.Bits() {
				best = &routes[i]
			}
		}
	}
	return best
}

// namedDev is a throwaway device distinguishable by name.
type namedDev string

func (d namedDev) DeviceName() string          { return string(d) }
func (d namedDev) Receive(ctx *Ctx, p *Packet) {}

// randPrefix draws a masked prefix of either family, with the edge
// lengths (/0 and the full host length) drawn often.
func randPrefix(r *rand.Rand) netip.Prefix {
	var a netip.Addr
	if r.Intn(2) == 0 {
		var b [4]byte
		r.Read(b[:])
		a = netip.AddrFrom4(b)
	} else {
		var b [16]byte
		r.Read(b[:])
		a = netip.AddrFrom16(b)
	}
	bits := r.Intn(a.BitLen() + 1)
	switch r.Intn(8) {
	case 0:
		bits = 0
	case 1:
		bits = a.BitLen()
	}
	return netip.PrefixFrom(a, bits).Masked()
}

// lpmProbes lists destinations for a table: random addresses of both
// families, every route's base and last address, and the v4-mapped
// form of every IPv4 probe (lookups unmap it).
func lpmProbes(r *rand.Rand, routes []Route) []netip.Addr {
	probes := make([]netip.Addr, 0, 4*len(routes)+60)
	for i := 0; i < 20; i++ {
		var b [4]byte
		r.Read(b[:])
		probes = append(probes, netip.AddrFrom4(b))
		var b6 [16]byte
		r.Read(b6[:])
		probes = append(probes, netip.AddrFrom16(b6))
	}
	for _, rt := range routes {
		base := rt.Prefix.Addr()
		last := base.As16()
		for i := rt.Prefix.Bits() + 128 - base.BitLen(); i < 128; i++ {
			last[i/8] |= 0x80 >> (i % 8)
		}
		probes = append(probes, base, netip.AddrFrom16(last).Unmap())
	}
	for _, p := range probes {
		if p.Is4() {
			probes = append(probes, netip.AddrFrom16(p.As16()))
		}
	}
	return probes
}

// lpmAgrees checks a router's lookups against the linear reference.
func lpmAgrees(router *Router, routes []Route, probes []netip.Addr) bool {
	for _, dst := range probes {
		got := router.lookupRoute(dst)
		want := refRoute(routes, dst)
		switch {
		case got == nil && want == nil:
		case got == nil || want == nil:
			return false
		case got.Prefix != want.Prefix || got.Next != want.Next:
			return false
		}
	}
	return true
}

// upsert mirrors insertRoute's replace-on-duplicate semantics.
func upsert(routes []Route, p netip.Prefix, dev Device) []Route {
	for j := range routes {
		if routes[j].Prefix == p {
			routes[j].Next = dev
			return routes
		}
	}
	return append(routes, Route{Prefix: p, Next: dev})
}

// TestPropertyLPMMatchesLinearReference drives the hash-based
// longest-prefix-match against a linear reference on random tables,
// before and after removing some of their routes.
func TestPropertyLPMMatchesLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		router := NewRouter("lpm")
		var routes []Route
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			p := randPrefix(r)
			dev := namedDev(p.String())
			router.AddRoute(p, dev)
			routes = upsert(routes, p, dev)
		}
		probes := lpmProbes(r, routes)
		if !lpmAgrees(router, routes, probes) {
			return false
		}
		// Removing about half the routes must fall back to the next-
		// longest match, memoized destinations included.
		var kept []Route
		for _, rt := range routes {
			if r.Intn(2) == 0 {
				router.RemoveRoute(rt.Prefix)
			} else {
				kept = append(kept, rt)
			}
		}
		return lpmAgrees(router, kept, probes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestLPMPrefersLongestAndReplacesDuplicates(t *testing.T) {
	router := NewRouter("x")
	a := namedDev("a")
	b := namedDev("b")
	c := namedDev("c")
	router.AddRoute(netip.MustParsePrefix("10.0.0.0/8"), a)
	router.AddRoute(netip.MustParsePrefix("10.1.0.0/16"), b)
	rt := router.lookupRoute(netip.MustParseAddr("10.1.2.3"))
	if rt == nil || rt.Next != Device(b) {
		t.Fatalf("lookup = %v, want /16 route", rt)
	}
	rt = router.lookupRoute(netip.MustParseAddr("10.2.2.3"))
	if rt == nil || rt.Next != Device(a) {
		t.Fatalf("lookup = %v, want /8 route", rt)
	}
	// Replacing the /16.
	router.AddRoute(netip.MustParsePrefix("10.1.0.0/16"), c)
	rt = router.lookupRoute(netip.MustParseAddr("10.1.2.3"))
	if rt == nil || rt.Next != Device(c) {
		t.Fatalf("lookup after replace = %v, want c", rt)
	}
}
