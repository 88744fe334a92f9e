package netsim

import "net/netip"

// FaultFlows reports how many Gilbert–Elliott chains and token buckets
// n's fault plane holds.
func FaultFlows(n *Network) (chains, buckets int) {
	if n.faults == nil {
		return 0, 0
	}
	return len(n.faults.chains), len(n.faults.rates)
}

// DNATFlows reports how many DNAT conntrack entries nat holds.
func DNATFlows(nat *NAT) int {
	if nat == nil {
		return 0
	}
	return len(nat.dnatCT)
}

// NextHop is the device r routes dst to, nil for none.
func NextHop(r *Router, dst netip.Addr) Device {
	if rt := r.lookupRoute(dst); rt != nil {
		return rt.Next
	}
	return nil
}
