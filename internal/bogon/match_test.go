package bogon

import (
	"math/rand"
	"net/netip"
	"testing"
)

// linearMatch is Match as first written: a scan of the whole table in
// order, the reference the octet index must agree with.
func linearMatch(addr netip.Addr) *Entry {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	for i := range table {
		if table[i].Prefix.Contains(addr) {
			return &table[i]
		}
	}
	return nil
}

// boundaries lists every table prefix's first and last address and
// their neighbours one below and one above.
func boundaries() []netip.Addr {
	var out []netip.Addr
	for _, e := range table {
		first := e.Prefix.Addr()
		last := first.As16()
		for i := e.Prefix.Bits() + 128 - first.BitLen(); i < 128; i++ {
			last[i/8] |= 0x80 >> (i % 8)
		}
		lastAddr := netip.AddrFrom16(last)
		if first.Is4() {
			lastAddr = lastAddr.Unmap()
		}
		out = append(out, first, lastAddr)
		if p := first.Prev(); p.IsValid() {
			out = append(out, p)
		}
		if n := lastAddr.Next(); n.IsValid() {
			out = append(out, n)
		}
	}
	return out
}

// TestMatchAgreesWithLinearScan: the octet index returns the very
// entry the linear scan does — the same *Entry, or nil — at every
// table boundary ±1 and at random IPv4, IPv6 and v4-mapped addresses,
// plus the zero Addr and a zoned address.
func TestMatchAgreesWithLinearScan(t *testing.T) {
	addrs := boundaries()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b4 [4]byte
		var b16 [16]byte
		r.Read(b4[:])
		r.Read(b16[:])
		addrs = append(addrs, netip.AddrFrom4(b4), netip.AddrFrom16(b16))
	}
	for _, a := range addrs[:len(addrs):len(addrs)] {
		if a.Is4() {
			addrs = append(addrs, netip.AddrFrom16(a.As16()))
		}
	}
	addrs = append(addrs, netip.Addr{}, netip.MustParseAddr("fe80::1%eth0"))
	matched := 0
	for _, a := range addrs {
		got, want := Match(a), linearMatch(a)
		if got != want {
			t.Fatalf("Match(%s) = %v, linear scan gives %v", a, got, want)
		}
		if got != nil {
			matched++
		}
	}
	if matched < len(table) {
		t.Errorf("only %d of %d addresses matched: the boundaries miss the table", matched, len(addrs))
	}
}

// TestMatchAllocatesNothing: classifying an address, bogon or not, of
// either family, allocates nothing.
func TestMatchAllocatesNothing(t *testing.T) {
	addrs := []netip.Addr{ProbeV4, ProbeV6, netip.MustParseAddr("8.8.8.8"),
		netip.MustParseAddr("2001:4860:4860::8888"), netip.MustParseAddr("::ffff:10.0.0.1")}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			Match(a)
		}
	}); allocs != 0 {
		t.Errorf("Match allocates %v/op, want 0", allocs)
	}
}

// TestMatchBucketsAreSmall: no first octet has more than three
// candidate entries, so Match tests at most three prefixes.
func TestMatchBucketsAreSmall(t *testing.T) {
	for _, idx := range byOctet {
		for o, bucket := range idx {
			if len(bucket) > 3 {
				t.Errorf("first octet %d has %d candidates", o, len(bucket))
			}
		}
	}
}
