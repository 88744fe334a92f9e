package netsim

import (
	"net/netip"
)

// DNATRule is one destination-NAT rule, the mechanism behind every
// transparent interceptor in this system. It is the simulator's
// equivalent of the RDK-B firewall's
//
//	iptables -t nat -A PREROUTING -p udp --dport 53 -j DNAT --to <resolver>
//
// rule that the paper's §5 case study documents on the XB6 router.
type DNATRule struct {
	// Name labels the rule in traces.
	Name string
	// Match decides whether the rule applies to a packet. The packet is
	// borrowed for the call and must not be kept or changed.
	Match func(*Packet) bool
	// To is the rewritten destination.
	To netip.AddrPort
	// Replicate, when set, also lets the original packet continue to its
	// intended destination, modeling the query-replication behavior prior
	// work observed (Liu et al.): the client receives two answers.
	Replicate bool
}

// NAT holds a device's NAT state: DNAT rules with their conntrack table,
// and optional source NAT for a private LAN.
type NAT struct {
	// DNATRules are evaluated in order at PREROUTING; first match wins.
	DNATRules []DNATRule

	// dnatCT maps (client, target) to the original destination so the
	// reply's source can be restored — the "spoofing" the paper describes:
	// responses arrive with the source address of the target resolver.
	// Clients use a fresh ephemeral source port per query, so the key is
	// unique per outstanding flow — the property real conntrack relies
	// on. Every conntrack map is keyed by the pointer-free flowKey.
	dnatCT map[flowKey]netip.AddrPort

	// MasqueradeV4/V6 are the external addresses for source NAT. Zero
	// values disable SNAT for that family (e.g. v6 homes that route
	// globally without NAT).
	MasqueradeV4 netip.Addr
	MasqueradeV6 netip.Addr

	// LANPrefixes limits SNAT to sources inside the LAN.
	LANPrefixes []netip.Prefix

	snatByFlow map[flowKey]uint16         // (origSrc, dst) -> external port
	snatByExt  map[flowKey]netip.AddrPort // (extAddrPort, remote) -> original src
	nextPort   uint16
}

// occupancy is the live table size: SNAT flow entries plus DNAT
// conntrack entries. Observed by the metrics plane as a high-water
// gauge after each new mapping.
func (n *NAT) occupancy() int {
	return len(n.snatByFlow) + len(n.dnatCT)
}

// NewNAT returns an empty NAT state.
func NewNAT() *NAT {
	n := new(NAT)
	n.Reset()
	return n
}

// Reset returns the NAT to the state NewNAT gives it, keeping its
// storage: rules, LAN prefixes and masquerade addresses go, the
// conntrack maps are emptied in place, and SNAT ports restart at 30000.
func (n *NAT) Reset() {
	*n = NAT{
		DNATRules:   n.DNATRules[:0],
		dnatCT:      clearOrMake(n.dnatCT),
		LANPrefixes: n.LANPrefixes[:0],
		snatByFlow:  clearOrMake(n.snatByFlow),
		snatByExt:   clearOrMake(n.snatByExt),
		nextPort:    30000,
	}
}

// AddDNAT appends a DNAT rule.
func (n *NAT) AddDNAT(r DNATRule) { n.DNATRules = append(n.DNATRules, r) }

// lanSource reports whether addr is inside a configured LAN prefix.
func (n *NAT) lanSource(addr netip.Addr) bool {
	for _, p := range n.LANPrefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// matchDNAT runs the PREROUTING DNAT match: the first rule whose Match
// accepts the packet decides. It returns nil when no rule matches or
// when the deciding rule's target is already the destination.
func (n *NAT) matchDNAT(pkt *Packet) *DNATRule {
	for i := range n.DNATRules {
		r := &n.DNATRules[i]
		if r.Match == nil || !r.Match(pkt) {
			continue
		}
		if pkt.Dst == r.To {
			return nil // already at target; nothing to do
		}
		return r
	}
	return nil
}

// rewriteDNAT applies a matched rule in place: it records the flow in
// conntrack and redirects the packet to the rule's target.
func (n *NAT) rewriteDNAT(pkt *Packet, r *DNATRule) {
	n.dnatCT[flowKeyOf(pkt.Src, r.To)] = pkt.Dst
	if !pkt.OrigDst.IsValid() {
		// First rewrite on the path wins: a chain of DNAT hops keeps
		// the client's true original destination, as conntrack does.
		pkt.OrigDst = pkt.Dst
	}
	pkt.Dst = r.To
}

// reverseDNAT restores, in place, the source address of a reply
// belonging to a tracked DNAT flow: a packet from the NAT target back to
// a recorded client gets its source rewritten to the client's original
// destination. This is the precise moment the response becomes
// "spoofed". An empty table is not probed.
func (n *NAT) reverseDNAT(pkt *Packet) bool {
	if len(n.dnatCT) == 0 {
		return false
	}
	key := flowKeyOf(pkt.Dst, pkt.Src)
	orig, ok := n.dnatCT[key]
	if !ok {
		return false
	}
	delete(n.dnatCT, key)
	pkt.Src = orig
	return true
}

// ForgetDNATFlows empties the DNAT conntrack table. reverseDNAT
// retires an entry when its reply passes, so the entries left are flows
// whose reply was lost; at a probe boundary no later probe can match
// them, since the key holds the client's address. Nil-safe.
func (n *NAT) ForgetDNATFlows() {
	if n != nil && len(n.dnatCT) > 0 {
		clear(n.dnatCT)
	}
}

// applySNAT runs the POSTROUTING masquerade step in place for
// LAN-originated packets leaving upstream. It allocates (or reuses) an
// external port per flow.
func (n *NAT) applySNAT(pkt *Packet) bool {
	ext := n.MasqueradeV4
	if isIPv6(pkt.Dst.Addr()) {
		ext = n.MasqueradeV6
	}
	if !ext.IsValid() || !n.lanSource(pkt.Src.Addr()) {
		return false
	}
	flow := flowKeyOf(pkt.Src, pkt.Dst)
	port, ok := n.snatByFlow[flow]
	if !ok {
		port = n.allocPort()
		n.snatByFlow[flow] = port
		flow.client = endpointKey(netip.AddrPortFrom(ext, port))
		n.snatByExt[flow] = pkt.Src
	}
	pkt.Src = netip.AddrPortFrom(ext, port)
	return true
}

// reverseSNAT restores, in place, the LAN destination of a reply
// arriving at the masquerade address. Only a packet addressed to a
// masquerade address can hit the table, so no other is looked up; the
// masquerade addresses do not change while the table holds entries.
func (n *NAT) reverseSNAT(pkt *Packet) bool {
	if a := pkt.Dst.Addr(); len(n.snatByExt) == 0 || (a != n.MasqueradeV4 && a != n.MasqueradeV6) {
		return false
	}
	orig, ok := n.snatByExt[flowKeyOf(pkt.Dst, pkt.Src)]
	if !ok {
		return false
	}
	pkt.Dst = orig
	return true
}

// reverseDNATICMP fixes up an ICMP Time Exceeded passing back through a
// DNAT device: the embedded destination is restored to what the client
// originally queried, so downstream NAT hops (and the client) recognize
// the flow. The conntrack entry is retired — the flow is dead. The
// payload is replaced, never edited: other packets may share it.
func (n *NAT) reverseDNATICMP(pkt *Packet) bool {
	srcPort, embDst, ok := ParseTimeExceeded(pkt)
	if !ok {
		return false
	}
	key := flowKeyOf(netip.AddrPortFrom(pkt.Dst.Addr(), srcPort), embDst)
	orig, found := n.dnatCT[key]
	if !found {
		return false
	}
	delete(n.dnatCT, key)
	payload := append([]byte(nil), pkt.Payload...)
	payload[2] = byte(orig.Port() >> 8)
	payload[3] = byte(orig.Port())
	a16 := orig.Addr().As16()
	copy(payload[4:20], a16[:])
	pkt.Payload = payload
	return true
}

// reverseSNATICMP rewrites an inbound ICMP Time Exceeded that refers to
// a masqueraded flow: the notification is re-addressed to the LAN host
// that originated the expired packet, and the embedded source port is
// restored — the ICMP half of real connection tracking.
func (n *NAT) reverseSNATICMP(pkt *Packet) bool {
	srcPort, origDst, ok := ParseTimeExceeded(pkt)
	if !ok || !n.MasqueradeV4.IsValid() {
		return false
	}
	key := flowKeyOf(netip.AddrPortFrom(n.MasqueradeV4, srcPort), origDst)
	origSrc, ok := n.snatByExt[key]
	if !ok {
		return false
	}
	pkt.Dst = netip.AddrPortFrom(origSrc.Addr(), pkt.Dst.Port())
	// Restore the embedded port so the host files it under its own flow.
	payload := append([]byte(nil), pkt.Payload...)
	payload[0] = byte(origSrc.Port() >> 8)
	payload[1] = byte(origSrc.Port())
	pkt.Payload = payload
	return true
}

// allocPort hands out external SNAT ports, skipping the well-known range.
func (n *NAT) allocPort() uint16 {
	p := n.nextPort
	n.nextPort++
	if n.nextPort < 30000 {
		n.nextPort = 30000
	}
	return p
}
