package netsim

import (
	"encoding/binary"
	"net/netip"
	"testing"
)

// fuzzAddr builds an address of family fam&3 from b's first 16 bytes:
// 0 the invalid zero Addr, 1 IPv4 from bytes 12–15, 2 IPv6 from all 16,
// 3 the v4-mapped IPv6 form of the same four bytes as 1. Families 1 and
// 3 over one b are the IPv4/v4-mapped pair that shares a routeKey.
func fuzzAddr(b []byte, fam uint8) netip.Addr {
	var a16 [16]byte
	copy(a16[:], b)
	switch fam & 3 {
	case 1:
		return netip.AddrFrom4([4]byte(a16[12:]))
	case 2:
		return netip.AddrFrom16(a16)
	case 3:
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: a16[12], 13: a16[13], 14: a16[14], 15: a16[15]})
	}
	return netip.Addr{}
}

// FuzzFlowKey pins the packed conntrack key to netip's equality: two
// flowKeys are equal exactly when their endpoint pairs are, and so are
// two portKeys. It also pins addrKey's IPv4 short path to the key of
// the address's As16 form. fams holds the four endpoints' families two
// bits each (client 1, target 1, client 2, target 2); same's low four
// bits make the second flow reuse the first's client bytes, target
// bytes, client port and target port, so near-equal flows come up.
func FuzzFlowKey(f *testing.F) {
	v4 := []byte{12: 192, 13: 0, 14: 2, 15: 1}
	v6 := []byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	f.Add(v4, v6, v4, v6, uint16(49152), uint16(53), uint16(49152), uint16(53), uint8(0b10_01_10_01), uint8(0b1111))
	f.Add(v4, v4, v4, v4, uint16(0), uint16(65535), uint16(0), uint16(65535), uint8(0b01_11_01_01), uint8(0b1111))
	f.Add(v4, v4, v4, v4, uint16(53), uint16(53), uint16(53), uint16(53), uint8(0b01_01_01_11), uint8(0b1111))
	f.Add(v6, v4, v6, v4, uint16(65535), uint16(0), uint16(65535), uint16(0), uint8(0b00_10_00_10), uint8(0b1111))
	f.Add(v4, v6, v6, v4, uint16(1), uint16(2), uint16(1), uint16(2), uint8(0b01_10_10_01), uint8(0))
	f.Fuzz(func(t *testing.T, c1, t1, c2, t2 []byte, cp1, tp1, cp2, tp2 uint16, fams, same uint8) {
		if same&1 != 0 {
			c2 = c1
		}
		if same&2 != 0 {
			t2 = t1
		}
		if same&4 != 0 {
			cp2 = cp1
		}
		if same&8 != 0 {
			tp2 = tp1
		}
		client1 := netip.AddrPortFrom(fuzzAddr(c1, fams), cp1)
		target1 := netip.AddrPortFrom(fuzzAddr(t1, fams>>2), tp1)
		client2 := netip.AddrPortFrom(fuzzAddr(c2, fams>>4), cp2)
		target2 := netip.AddrPortFrom(fuzzAddr(t2, fams>>6), tp2)

		for _, ap := range []netip.AddrPort{client1, target1, client2, target2} {
			a16 := ap.Addr().As16()
			want := routeKey{hi: binary.BigEndian.Uint64(a16[:8]), lo: binary.BigEndian.Uint64(a16[8:])}
			if got := addrKey(ap.Addr()); got != want {
				t.Fatalf("addrKey(%v) = %x, want the As16 form %x", ap.Addr(), got, want)
			}
		}
		if got, want := endpointKey(client1) == endpointKey(client2), client1 == client2; got != want {
			t.Errorf("portKeys of %v and %v equal: %t, want %t", client1, client2, got, want)
		}
		got := flowKeyOf(client1, target1) == flowKeyOf(client2, target2)
		if want := client1 == client2 && target1 == target2; got != want {
			t.Errorf("flowKeys of (%v, %v) and (%v, %v) equal: %t, want %t", client1, target1, client2, target2, got, want)
		}
	})
}
