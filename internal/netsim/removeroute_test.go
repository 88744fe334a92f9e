package netsim

import (
	"net/netip"
	"testing"
)

// TestRemoveRouteFallsBackToCoveringPrefix: once a subscriber /32 is
// removed, its address routes by the covering prefix again.
func TestRemoveRouteFallsBackToCoveringPrefix(t *testing.T) {
	r := NewRouter("seg")
	up, home := namedDev("up"), namedDev("home")
	r.AddRoute(netip.MustParsePrefix("33.0.1.0/24"), up)
	host := netip.MustParsePrefix("33.0.1.7/32")
	r.AddRoute(host, home)
	dst := host.Addr()
	if got := r.lookupRoute(dst); got == nil || got.Next != home {
		t.Fatalf("before removal: %v, want the /32", got)
	}
	r.RemoveRoute(host)
	if got := r.lookupRoute(dst); got == nil || got.Next != up || got.Prefix.Bits() != 24 {
		t.Fatalf("after removal: %+v, want the covering /24", got)
	}
	// Removing an absent prefix is a no-op.
	r.RemoveRoute(host)
	r.RemoveRoute(netip.MustParsePrefix("2a00::/64"))
	if got := r.lookupRoute(dst); got == nil || got.Next != up {
		t.Fatalf("after repeated removal: %+v, want the covering /24", got)
	}
}

// TestRemoveRouteInvalidatesMemo: a destination memoized while the
// route existed must not be answered from the memo after removal, in
// either family, while unrelated memo entries survive.
func TestRemoveRouteInvalidatesMemo(t *testing.T) {
	r := NewRouter("seg")
	up, home := namedDev("up"), namedDev("home")
	r.AddDefaultRoute(up)
	lan6 := netip.MustParsePrefix("2a00:0:0:1:1::/64")
	wan := netip.MustParsePrefix("33.0.1.9/32")
	r.AddRoute(wan, home)
	r.AddRoute(lan6, home)
	other := netip.MustParseAddr("8.8.8.8")
	for _, dst := range []netip.Addr{wan.Addr(), lan6.Addr(), other} {
		r.lookupRoute(dst) // warm the memo
		if _, ok := r.memo(dst).get(addrKey(dst)); !ok {
			t.Fatalf("%s not memoized", dst)
		}
	}

	r.RemoveRoute(wan)
	r.RemoveRoute(lan6)
	for _, dst := range []netip.Addr{wan.Addr(), lan6.Addr()} {
		if rt, ok := r.memo(dst).get(addrKey(dst)); ok {
			t.Errorf("%s still memoized after removal (-> %v)", dst, rt.Next)
		}
		if got := r.lookupRoute(dst); got == nil || got.Next != up {
			t.Errorf("%s routes via %+v after removal, want the default route", dst, got)
		}
	}
	if rt, ok := r.memo(other).get(addrKey(other)); !ok || rt.Next != up {
		t.Errorf("unrelated memo entry for %s dropped", other)
	}
}

// memo returns the lookup memo of dst's family.
func (r *Router) memo(dst netip.Addr) *lookupCache {
	if dst.Is6() {
		return &r.cache6
	}
	return &r.cache4
}

// TestRemoveRouteReaddAllocatesNothing pins the per-home route churn:
// a subscriber's /32 and /64 added and removed again, as each measured
// probe's home does, reuses the removed entries and the existing
// per-length maps instead of allocating.
func TestRemoveRouteReaddAllocatesNothing(t *testing.T) {
	r := NewRouter("seg")
	r.AddDefaultRoute(namedDev("up"))
	var home Device = namedDev("home") // converted once, outside the measured loop
	wan := netip.MustParsePrefix("33.0.1.9/32")
	lan6 := netip.MustParsePrefix("2a00:0:0:1:1::/64")
	churn := func() {
		r.AddRoute(wan, home)
		r.AddRoute(lan6, home)
		r.lookupRoute(wan.Addr())
		r.RemoveRoute(wan)
		r.RemoveRoute(lan6)
	}
	churn() // first pass creates the per-length maps and spare entries
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("re-adding removed routes: %v allocs/op, want 0", allocs)
	}
	if len(r.routes4) != 2 {
		t.Errorf("routes4 has %d lengths, want /32 and /0 kept across churn", len(r.routes4))
	}
}

// TestRouterResetForgetsRoutesAndMemos: a reset router routes like a
// new one — its old routes and memoized lookups are gone, its
// services and firewall holes are unbound — and rebinding it with the
// same shape of table allocates nothing, because every route went to
// the spare list.
func TestRouterResetForgetsRoutesAndMemos(t *testing.T) {
	r := NewRouter("cpe-1", netip.MustParseAddr("192.168.1.1"))
	var up, lan Device = namedDev("up"), namedDev("lan")
	hostPfx := netip.MustParsePrefix("192.168.1.2/32")
	bind := func(name string) {
		r.Reset(name, netip.MustParseAddr("192.168.1.1"))
		r.AddDefaultRoute(up)
		r.AddRoute(hostPfx, lan)
		r.Bind(53, ServiceFunc(func(*ServiceCtx, *Packet) {}))
		r.lookupRoute(hostPfx.Addr())
	}
	bind("cpe-1")
	r.AddInputFilter(func(*Packet) (bool, string) { return true, "stale" })

	r.Reset("cpe-2")
	if r.Name != "cpe-2" || len(r.Addrs()) != 0 || len(r.inputFilters) != 0 {
		t.Fatalf("reset kept name/addrs/filters: %q %v %d", r.Name, r.Addrs(), len(r.inputFilters))
	}
	if got := r.lookupRoute(hostPfx.Addr()); got != nil {
		t.Fatalf("reset router still routes %s via %v", hostPfx.Addr(), got.Next)
	}
	if _, ok := r.BoundService(netip.MustParseAddr("192.168.1.1"), 53); ok {
		t.Fatal("reset router kept its port-53 service")
	}

	bind("cpe-3") // grows the spare list back to the table's size
	if allocs := testing.AllocsPerRun(100, func() { bind("cpe-3") }); allocs != 0 {
		t.Errorf("rebinding a reset router: %v allocs/op, want 0", allocs)
	}
}
