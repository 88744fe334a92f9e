package netsim

import "net/netip"

// FaultFlows reports how many Gilbert–Elliott chains and token buckets
// n's fault plane holds: the length of each slab, which every new flow
// grows and ForgetFaultFlows truncates.
func FaultFlows(n *Network) (chains, buckets int) {
	if n.faults == nil {
		return 0, 0
	}
	return len(n.faults.chains.slab), len(n.faults.rates.slab)
}

// DNATFlows reports how many DNAT conntrack entries nat holds.
func DNATFlows(nat *NAT) int {
	if nat == nil {
		return 0
	}
	return len(nat.dnatCT)
}

// SetDeviceFault installs a profile for one device (by name),
// overriding the default: a test faults a single link with it.
func (n *Network) SetDeviceFault(name string, p FaultProfile) {
	if n.faults == nil {
		n.faults = newFaultPlane()
	}
	if n.faults.byDev == nil {
		n.faults.byDev = make(map[string]*FaultProfile)
	}
	n.faults.byDev[name] = &p
}

// NextHop is the device r routes dst to, nil for none.
func NextHop(r *Router, dst netip.Addr) Device {
	if rt := r.lookupRoute(dst); rt != nil {
		return rt.Next
	}
	return nil
}
