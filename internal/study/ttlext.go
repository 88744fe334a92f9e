package study

import (
	"net/netip"
	"sort"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/ttlprobe"
)

// TTLStats summarizes the TTL-ladder extension run across the fleet:
// for each verdict class, the distribution of the smallest TTL that
// produced an answer. The paper proposed exactly this measurement as
// future work (§6) but could not run it on RIPE Atlas; the simulated
// platform has no such restriction.
type TTLStats struct {
	// FirstTTLs maps verdict -> sorted first-answering TTLs.
	FirstTTLs map[core.Verdict][]int
}

// RunTTLExtension runs a TTL ladder towards Google's primary v4 address
// from every intercepted probe, plus cleanSample clean probes for the
// baseline. Each ladder runs from the probe's home, bound into its
// record's world's home slot for the ladder and released after it.
func RunTTLExtension(res *Results, cleanSample int, maxTTL int) TTLStats {
	stats := TTLStats{FirstTTLs: make(map[core.Verdict][]int)}
	google := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)

	cleanSeen := 0
	for _, rec := range res.Records {
		if rec.Report == nil {
			continue
		}
		verdict := rec.Report.Verdict
		if verdict == core.VerdictNotIntercepted {
			if cleanSeen >= cleanSample {
				continue
			}
			cleanSeen++
		}
		var ladder ttlprobe.Result
		var err error
		built := rec.WithHome(func(host *netsim.Host) {
			client := &ttlprobe.SimTTLClient{Net: rec.Net, Host: host}
			ladder, err = ttlprobe.Ladder(client, google, publicdns.CanaryDomain, maxTTL)
		})
		if !built || err != nil {
			continue
		}
		stats.FirstTTLs[verdict] = append(stats.FirstTTLs[verdict], ladder.FirstTTL)
	}
	for _, ttls := range stats.FirstTTLs {
		sort.Ints(ttls)
	}
	return stats
}

// Median returns the median first-TTL for a verdict (0 if none).
func (s TTLStats) Median(v core.Verdict) int {
	ttls := s.FirstTTLs[v]
	if len(ttls) == 0 {
		return 0
	}
	return ttls[len(ttls)/2]
}

// Range returns the min and max first-TTL for a verdict.
func (s TTLStats) Range(v core.Verdict) (min, max int) {
	ttls := s.FirstTTLs[v]
	if len(ttls) == 0 {
		return 0, 0
	}
	return ttls[0], ttls[len(ttls)-1]
}
