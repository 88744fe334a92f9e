package netsim

// MatchUDPPort53, MatchUDP53To and MatchUDP53Except are used only by
// this package's tests.

import (
	"net/netip"
)

// MatchUDPPort53 is the classic interceptor match: any UDP packet to
// destination port 53.
func MatchUDPPort53(pkt *Packet) bool {
	return pkt.Proto == UDP && pkt.Dst.Port() == 53
}

// MatchUDP53To returns a match for UDP port-53 packets addressed to one
// of the given destinations — interceptors that target specific public
// resolvers rather than all DNS traffic.
func MatchUDP53To(dsts ...netip.Addr) func(*Packet) bool {
	set := make(map[netip.Addr]bool, len(dsts))
	for _, d := range dsts {
		set[d] = true
	}
	return func(pkt *Packet) bool {
		return pkt.Proto == UDP && pkt.Dst.Port() == 53 && set[pkt.Dst.Addr()]
	}
}

// MatchUDP53Except returns a match for UDP port-53 packets addressed to
// anything except the given destinations — "only one resolver allowed"
// interceptors (§4.1.1).
func MatchUDP53Except(allowed ...netip.Addr) func(*Packet) bool {
	set := make(map[netip.Addr]bool, len(allowed))
	for _, d := range allowed {
		set[d] = true
	}
	return func(pkt *Packet) bool {
		return pkt.Proto == UDP && pkt.Dst.Port() == 53 && !set[pkt.Dst.Addr()]
	}
}
