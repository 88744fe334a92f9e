package study

import (
	"net/netip"
	"sort"

	"github.com/dnswatch/dnsloc/internal/core"
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

// TTLTarget is a probe the TTL extension ladders from, with the
// verdict its first-answering TTL is filed under.
type TTLTarget struct {
	ID      int
	Verdict core.Verdict
}

// TTLTargets picks the TTL extension's ladder targets from a run's
// records, added in probe-ID order: every responding probe with an
// interception verdict, and the first CleanSample clean ones for the
// baseline.
type TTLTargets struct {
	CleanSample int
	Targets     []TTLTarget
	clean       int
}

// Add considers one probe.
func (t *TTLTargets) Add(e *ProbeExport) {
	if !e.Responded {
		return
	}
	v := core.Verdict(e.Verdict)
	if v == core.VerdictNotIntercepted {
		if t.clean >= t.CleanSample {
			return
		}
		t.clean++
	}
	t.Targets = append(t.Targets, TTLTarget{ID: e.ProbeID, Verdict: v})
}

// RunTTLExtension runs a TTL ladder towards Google's primary v4 address
// from every target's home. It is a second pass after the study: one
// world built over the unsharded spec owns every probe, and each
// target's home is bound into its home slot for the ladder and released
// after it.
func RunTTLExtension(spec Spec, targets []TTLTarget, maxTTL int) TTLStats {
	stats := TTLStats{FirstTTLs: make(map[core.Verdict][]int)}
	google := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	w := BuildWorld(spec)
	for _, t := range targets {
		probe := w.probe(t.ID)
		w.buildHome(probe)
		ladder, err := ttlprobe.Ladder(&ttlprobe.SimTTLClient{Net: w.Net, Host: probe.Host},
			google, publicdns.CanaryDomain, maxTTL)
		w.releaseHome(probe)
		if err != nil {
			continue
		}
		stats.FirstTTLs[t.Verdict] = append(stats.FirstTTLs[t.Verdict], ladder.FirstTTL)
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
