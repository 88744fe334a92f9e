package netsim

import "github.com/dnswatch/dnsloc/internal/metrics"

// netMetrics is the event loop's pre-resolved metric handles. Handles
// are looked up once in SetMetrics; the per-packet cost is one nil
// check plus one atomic add. Only client flows (isClientFlow) feed the
// Stable counters: infrastructure recursion traffic depends on which
// probes share a world (resolver cache warmth), so counting it would
// break snapshot byte-identity across worker counts.
type netMetrics struct {
	forwarded *metrics.Counter // client-flow hops handed to the next device
	ttlDrops  *metrics.Counter // client-flow packets expired in Forward

	burstDrops *metrics.Counter // fault: Gilbert–Elliott burst loss
	truncated  *metrics.Counter // fault: response clipped to TruncBytes
	dupCopies  *metrics.Counter // fault: extra copies enqueued
	reordered  *metrics.Counter // fault: delivery delayed by jitter
	rateDrops  *metrics.Counter // fault: query dropped by token bucket

	natOccupancy *metrics.Gauge // peak SNAT+conntrack entries at any one NAT

	// Route-lookup memo effectiveness (lookupRoute's 4-slot cache).
	// Diagnostic: lookups cover every flow, including infrastructure
	// recursion whose volume depends on which probes share a world.
	routeLookups   *metrics.Counter
	routeCacheHits *metrics.Counter
}

// SetMetrics wires the network's hot paths to a registry; nil detaches
// them. NAT occupancy is Diagnostic by design: a shard's world holds
// only its own probes, so table population differs by worker count.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		n.metrics = nil
		return
	}
	n.metrics = &netMetrics{
		forwarded:    reg.Counter("netsim.client_hops_forwarded", metrics.Stable),
		ttlDrops:     reg.Counter("netsim.client_ttl_drops", metrics.Stable),
		burstDrops:   reg.Counter("netsim.fault_burst_loss_drops", metrics.Stable),
		truncated:    reg.Counter("netsim.fault_truncated_responses", metrics.Stable),
		dupCopies:    reg.Counter("netsim.fault_duplicated_copies", metrics.Stable),
		reordered:    reg.Counter("netsim.fault_reordered_packets", metrics.Stable),
		rateDrops:    reg.Counter("netsim.fault_rate_limited_drops", metrics.Stable),
		natOccupancy: reg.Gauge("netsim.nat_table_peak_entries", metrics.Diagnostic),

		routeLookups:   reg.Counter("netsim.route_lookups", metrics.Diagnostic),
		routeCacheHits: reg.Counter("netsim.route_cache_hits", metrics.Diagnostic),
	}
}

// observeNAT records a NAT's current table size after an entry may have
// been added.
func (n *Network) observeNAT(t *NAT) {
	if n.metrics != nil {
		n.metrics.natOccupancy.Observe(int64(t.occupancy()))
	}
}
