// Package bogon classifies IP addresses as bogons — addresses that must
// never appear as routable destinations on the public Internet (RFC 1918
// private space, documentation prefixes, and friends).
//
// The localization technique's third step (§3.3 of the paper) sends DNS
// queries to bogon destinations: such packets cannot leave the client's
// AS, so any answer proves an interceptor inside the AS. This package
// provides the prefix sets, the classification predicate, and the two
// canonical probe addresses the study uses.
package bogon

import (
	"net/netip"
)

// Entry is one bogon prefix with its provenance.
type Entry struct {
	Prefix netip.Prefix
	Source string // the defining RFC or registry note
}

// table is the full bogon list, assembled from the IANA special-purpose
// registries for IPv4 and IPv6.
var table = []Entry{
	// IPv4
	{netip.MustParsePrefix("0.0.0.0/8"), "RFC 1122 'this network'"},
	{netip.MustParsePrefix("10.0.0.0/8"), "RFC 1918 private"},
	{netip.MustParsePrefix("100.64.0.0/10"), "RFC 6598 shared CGN"},
	{netip.MustParsePrefix("127.0.0.0/8"), "RFC 1122 loopback"},
	{netip.MustParsePrefix("169.254.0.0/16"), "RFC 3927 link-local"},
	{netip.MustParsePrefix("172.16.0.0/12"), "RFC 1918 private"},
	{netip.MustParsePrefix("192.0.0.0/24"), "RFC 6890 protocol assignments"},
	{netip.MustParsePrefix("192.0.2.0/24"), "RFC 5737 TEST-NET-1"},
	{netip.MustParsePrefix("192.168.0.0/16"), "RFC 1918 private"},
	{netip.MustParsePrefix("198.18.0.0/15"), "RFC 2544 benchmarking"},
	{netip.MustParsePrefix("198.51.100.0/24"), "RFC 5737 TEST-NET-2"},
	{netip.MustParsePrefix("203.0.113.0/24"), "RFC 5737 TEST-NET-3"},
	{netip.MustParsePrefix("224.0.0.0/4"), "RFC 5771 multicast"},
	{netip.MustParsePrefix("240.0.0.0/4"), "RFC 1112 reserved"},
	// IPv6
	{netip.MustParsePrefix("::/128"), "RFC 4291 unspecified"},
	{netip.MustParsePrefix("::1/128"), "RFC 4291 loopback"},
	{netip.MustParsePrefix("::ffff:0:0/96"), "RFC 4291 v4-mapped"},
	{netip.MustParsePrefix("100::/64"), "RFC 6666 discard-only"},
	{netip.MustParsePrefix("2001:db8::/32"), "RFC 3849 documentation"},
	{netip.MustParsePrefix("3fff::/20"), "RFC 9637 documentation"},
	{netip.MustParsePrefix("fc00::/7"), "RFC 4193 unique local"},
	{netip.MustParsePrefix("fe80::/10"), "RFC 4291 link-local"},
	{netip.MustParsePrefix("ff00::/8"), "RFC 4291 multicast"},
}

// Probe addresses used by the study: one unroutable destination per
// family, drawn from documentation space so no real host can own them.
var (
	// ProbeV4 is the IPv4 bogon destination for bogon queries.
	ProbeV4 = netip.MustParseAddr("192.0.2.53")
	// ProbeV6 is the IPv6 bogon destination for bogon queries.
	ProbeV6 = netip.MustParseAddr("2001:db8:5353::53")
)

// Is reports whether addr falls in any bogon prefix. v4-mapped v6
// addresses are classified by their embedded IPv4 address.
func Is(addr netip.Addr) bool {
	return Match(addr) != nil
}

// Match returns the first entry of the table whose prefix contains
// addr, or nil. It tests only the entries of addr's family whose
// prefix can hold addr's first octet: at most three.
func Match(addr netip.Addr) *Entry {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.IsValid() {
		return nil
	}
	family := 0
	if addr.Is6() {
		family = 1
	}
	for _, e := range byOctet[family][addr.AsSlice()[0]] {
		if e.Prefix.Contains(addr) {
			return e
		}
	}
	return nil
}

// byOctet indexes the table by family (IPv4, IPv6) and first address
// octet: each bucket lists, in table order, the entries whose prefix
// can hold an address starting with that octet.
var byOctet = func() (idx [2][256][]*Entry) {
	for i := range table {
		p := table[i].Prefix
		family := 0
		if p.Addr().Is6() {
			family = 1
		}
		// A prefix shorter than 8 bits spans every octet that agrees
		// with it in its first bits.
		first := int(p.Addr().AsSlice()[0])
		for o := first; o < first+1<<max(8-p.Bits(), 0); o++ {
			idx[family][o] = append(idx[family][o], &table[i])
		}
	}
	return idx
}()

// Table returns a copy of the full bogon list.
func Table() []Entry {
	return append([]Entry(nil), table...)
}

// IsPrivate reports whether addr is RFC 1918 / RFC 4193 private space —
// the space CPE LANs live in. All private space is bogon space, but not
// vice versa.
func IsPrivate(addr netip.Addr) bool {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	return addr.IsPrivate()
}
