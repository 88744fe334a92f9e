package netsim

import (
	"encoding/binary"
	"net/netip"
)

// ICMP Time Exceeded modeling. When enabled on the Network, the router
// that decrements a packet's TTL to zero sends an ICMP notification back
// to the source, carrying — as real ICMP does — enough of the original
// packet to identify the flow. This is what turns the §6 TTL ladder into
// a proper traceroute: each rung names the router at that hop.

// timeExceededPayload encodes the flow identity of the expired packet:
// original source port, destination port, and destination address.
func timeExceededPayload(orig *Packet) []byte {
	dst16 := orig.Dst.Addr().As16()
	out := make([]byte, 0, 4+16)
	out = binary.BigEndian.AppendUint16(out, orig.Src.Port())
	out = binary.BigEndian.AppendUint16(out, orig.Dst.Port())
	out = append(out, dst16[:]...)
	return out
}

// ParseTimeExceeded decodes an ICMP Time Exceeded packet's embedded flow
// identity. ok is false for malformed or non-ICMP packets.
func ParseTimeExceeded(p Packet) (origSrcPort uint16, origDst netip.AddrPort, ok bool) {
	if p.Proto != ICMP || len(p.Payload) < 20 {
		return 0, netip.AddrPort{}, false
	}
	srcPort := binary.BigEndian.Uint16(p.Payload[0:2])
	dstPort := binary.BigEndian.Uint16(p.Payload[2:4])
	addr := netip.AddrFrom16([16]byte(p.Payload[4:20])).Unmap()
	return srcPort, netip.AddrPortFrom(addr, dstPort), true
}

// sendTimeExceeded emits the notification from a router back to the
// expired packet's source. The source address is the router's ID — it
// does not need to be routable (real backbone routers answer from
// interface or loopback addresses all the time); only the destination
// matters for delivery.
func (r *Router) sendTimeExceeded(ctx *Ctx, orig *Packet) {
	if !r.RouterID.IsValid() {
		return // anonymous router: the hop shows as "*"
	}
	icmp := Packet{
		Src:     netip.AddrPortFrom(r.RouterID, 0),
		Dst:     orig.Src,
		Proto:   ICMP,
		TTL:     DefaultTTL,
		Payload: timeExceededPayload(orig),
		SentAt:  orig.SentAt,
	}
	r.routePacket(ctx, &icmp, true)
}
