package netsim

import (
	"net/netip"
	"testing"
)

// TestLookupMemoHoldsProbeWorkingSet: the destinations a CPE forwards
// to while measuring one probe — the four operators' anycast addresses,
// the bogon target, the LAN host, the ISP resolver and the probe's own
// WAN — stay memoized while the probe cycles through them. A 4-slot
// round-robin memo missed every lookup of such a cycle.
func TestLookupMemoHoldsProbeWorkingSet(t *testing.T) {
	r := NewRouter("cpe")
	r.AddDefaultRoute(namedDev("up"))
	r.AddRoute(netip.MustParsePrefix("192.168.1.0/24"), namedDev("lan"))
	working := []netip.Addr{
		netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("8.8.8.8"),
		netip.MustParseAddr("9.9.9.9"), netip.MustParseAddr("208.67.222.222"),
		netip.MustParseAddr("192.0.2.53"), netip.MustParseAddr("192.168.1.2"),
		netip.MustParseAddr("33.0.0.53"), netip.MustParseAddr("33.0.1.9"),
	}
	for _, dst := range working {
		r.lookupRoute(dst)
	}
	held := 0
	for _, dst := range working {
		if _, ok := r.cache4.get(addrKey(dst)); ok {
			held++
		}
	}
	// Direct-mapped: two destinations whose keys hash to one slot evict
	// each other (9.9.9.9 and 192.0.2.53 do), the rest stay.
	if held < len(working)-1 {
		t.Errorf("memo holds %d of a probe's %d destinations after one cycle", held, len(working))
	}
}

// TestLookupMemoSlotEviction: a destination memoized into an occupied
// slot replaces the entry there, and a get never answers for a key its
// slot does not hold.
func TestLookupMemoSlotEviction(t *testing.T) {
	var c lookupCache
	a, b := addrKey(netip.MustParseAddr("9.9.9.9")), addrKey(netip.MustParseAddr("192.0.2.53"))
	if lookupSlot(a) != lookupSlot(b) {
		t.Fatal("test keys no longer share a slot")
	}
	ra, rb := &Route{}, &Route{}
	c.put(a, ra)
	if rt, ok := c.get(a); !ok || rt != ra {
		t.Fatal("memoized lookup not returned")
	}
	c.put(b, rb)
	if _, ok := c.get(a); ok {
		t.Error("evicted key still answered")
	}
	if rt, ok := c.get(b); !ok || rt != rb {
		t.Error("the slot's new key not answered")
	}
	c.invalidate(b, 128)
	if _, ok := c.get(b); ok || c.valid != 0 {
		t.Error("invalidated entry survives")
	}
}
