package netsim

import (
	"encoding/binary"
	"net/netip"
	"slices"
)

// routeKey is an address as a pointer-free 128-bit integer: an IPv6
// address as is, an IPv4 address in its v4-mapped form. A prefix is
// keyed by its address masked to its length, with IPv4 lengths offset
// by 96 into the 128-bit space, so one mask serves both families and a
// table probe hashes 16 bytes with no pointer in them.
type routeKey struct{ hi, lo uint64 }

// addrKey converts an address to its key.
func addrKey(a netip.Addr) routeKey {
	b := a.As16()
	return routeKey{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:])}
}

// mask keeps the key's first bits bits, with bits in [0, 128].
func (k routeKey) mask(bits int) routeKey {
	if bits <= 64 {
		return routeKey{hi: k.hi &^ (^uint64(0) >> bits)}
	}
	return routeKey{hi: k.hi, lo: k.lo &^ (^uint64(0) >> (bits - 64))}
}

// prefixKey returns a masked prefix's key and its length in the key
// space.
func prefixKey(p netip.Prefix) (routeKey, int) {
	bits := p.Bits()
	if !p.Addr().Is6() {
		bits += 96
	}
	return addrKey(p.Addr()).mask(bits), bits
}

// lenTable holds one prefix length's routes, keyed by masked address;
// bits is the length in the key space.
type lenTable struct {
	bits int
	m    map[routeKey]*Route
}

// lenTables is one family's forwarding table: a lenTable per prefix
// length present, longest first, so a longest-prefix match walks it in
// order and stops at the first hit. A length outlives its last entry.
type lenTables []lenTable

// find returns the table of one length, nil when the length is absent.
func (ts lenTables) find(bits int) *lenTable {
	for i := range ts {
		if ts[i].bits == bits {
			return &ts[i]
		}
	}
	return nil
}

// at returns the table of one length, adding the length in order when
// it is new.
func (ts *lenTables) at(bits int) *lenTable {
	if t := ts.find(bits); t != nil {
		return t
	}
	i := 0
	for i < len(*ts) && (*ts)[i].bits > bits {
		i++
	}
	*ts = slices.Insert(*ts, i, lenTable{bits: bits, m: make(map[routeKey]*Route)})
	return &(*ts)[i]
}

// match is the longest-prefix match for the destination key k: the
// route of the longest length holding k's prefix, nil when none does.
func (ts lenTables) match(k routeKey) *Route {
	for i := range ts {
		if rt, ok := ts[i].m[k.mask(ts[i].bits)]; ok {
			return rt
		}
	}
	return nil
}
