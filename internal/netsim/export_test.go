package netsim

// FaultFlows reports how many Gilbert–Elliott chains and token buckets
// n's fault plane holds.
func FaultFlows(n *Network) (chains, buckets int) {
	if n.faults == nil {
		return 0, 0
	}
	return len(n.faults.chains), len(n.faults.rates)
}
