package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric of the catalog.
type metricDef struct {
	name, unit string
	// higherBetter is the metric's direction.
	higherBetter bool
	// bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced repetitions. failed_share is a gate as much as a metric: it
// is 0 on every passing run, so the JSON result line carries it as
// "failed" instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "probes_per_s", unit: "probes/s", higherBetter: true, bound: 0.24},
	{name: "cpu_us_per_probe", unit: "us", bound: 0.20},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.10},
	{name: "failed_share", unit: "ratio", bound: 0},
}

// hostMetrics follow the end-to-end metrics in the printout: the
// calibration kernel's time, the stolen time, and the time metrics as
// measured, before either correction.
var hostMetrics = []struct{ name, unit string }{
	{"host.calibration_s", "s"},
	{"host.steal_s", "s"},
	{"raw.setup_s", "s"},
	{"raw.probes_per_s", "probes/s"},
	{"raw.cpu_us_per_probe", "us"},
}

// perLayer are the metrics of a traced repetition (plus the counts every
// repetition has). Those marked inResult go into the JSON result line:
// each is nonzero on every workload, or a count.
var perLayer = []struct {
	name, unit string
	inResult   bool
}{
	{"study.build.cpu_s", "s", true},
	{"study.predraw.cpu_s", "s", false},
	{"study.records_retained", "count", true},
	{"study.cpu_s", "s", true},
	{"core.exchange.count", "count", true},
	{"core.exchange.busy_s", "s", true},
	{"core.exchange.us_p50", "us", true},
	{"core.exchange.us_p99", "us", true},
	{"core.probe.exchange_ms_p50", "ms", true},
	{"core.probe.exchange_ms_p99", "ms", true},
	{"core.attempts", "count", true},
	{"core.retries", "count", true},
	{"core.answer_ratio", "ratio", true},
	{"core.cpu_s", "s", true},
	{"netsim.cpu_s", "s", true},
	{"netsim.hops", "count", true},
	{"netsim.ns_per_hop", "ns", true},
	{"netsim.route_lookups", "count", true},
	{"netsim.route_cache_hit_ratio", "ratio", true},
	{"netsim.fault_drops", "count", true},
	{"netsim.nat_table_peak", "count", true},
	{"dnswire.cpu_s", "s", true},
	{"dnswire.ns_per_exchange", "ns", true},
	{"dnsserver.cpu_s", "s", true},
	{"dnsserver.forwarder_queries", "count", true},
	{"dnsserver.forwarder_cache_hit_ratio", "ratio", true},
	{"dnsserver.chaos_local", "count", true},
	{"cpe.cpu_s", "s", false},
	{"isp.cpu_s", "s", false},
	{"backbone.cpu_s", "s", false},
	{"publicdns.cpu_s", "s", true},
	{"bogon.cpu_s", "s", false},
	{"dotsim.cpu_s", "s", false},
	{"analysis.cpu_s", "s", false},
	{"analysis.fold.count", "count", true},
	{"analysis.fold.busy_s", "s", true},
	{"analysis.merge.busy_s", "s", false},
	{"analysis.marshal.busy_s", "s", false},
	{"sink.append.busy_s", "s", false},
	{"sink.flush.count", "count", true},
	{"sink.flush.busy_s", "s", false},
	{"sink.bytes", "bytes", true},
	{"checkpoint.count", "count", true},
	{"checkpoint.fs.busy_s", "s", false},
	{"checkpoint.fsyncs", "count", true},
	{"checkpoint.bytes", "bytes", true},
	{"runtime.mallocs_per_probe", "1/probe", true},
	{"runtime.alloc_bytes_per_probe", "bytes/probe", true},
	{"runtime.gc_cycles", "count", true},
	{"gc.cpu_s", "s", true},
	{"trace.cpu_s", "s", true},
	{"trace.utilization", "ratio", true},
	{"trace.other_s", "s", true},
	{"trace.overhead", "ratio", true},
}

// layerNames lists the per-layer metrics of traced repetitions in print
// order: the catalog, then the CPU time of every other module the
// profiles saw, so that the module, gc and other times add up to
// trace.cpu_s.
func layerNames(traced []*repResult) []string {
	if len(traced) == 0 {
		return nil
	}
	var names, extra []string
	seen := map[string]bool{}
	for _, def := range perLayer {
		names = append(names, def.name)
		seen[def.name] = true
	}
	for _, r := range traced {
		for name := range r.Metrics {
			if strings.HasSuffix(name, ".cpu_s") && !seen[name] {
				seen[name] = true
				extra = append(extra, name)
			}
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

func layerUnit(name string) string {
	for _, def := range perLayer {
		if def.name == name {
			return def.unit
		}
	}
	return "s" // a module's .cpu_s
}

// summary is one metric's distribution over a set of repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so these figures match a reader's own check.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is how much b's median is worse than a's, as a share of a's
// median; negative when b is better. A zero baseline counts any change
// as infinitely large.
func worseBy(def metricDef, a, b summary) float64 {
	d := b.Median - a.Median
	if def.higherBetter {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case a.Median == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a.Median)
}

// spread is the distance between a set's quartiles as a share of its
// median.
func spread(s summary) float64 {
	if s.Q3 == s.Q1 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// separated reports whether every run of one set beats every run of the
// other.
func separated(a, b summary) bool {
	lo := func(v []float64) float64 { return minMax(v, false) }
	hi := func(v []float64) float64 { return minMax(v, true) }
	return hi(a.Values) < lo(b.Values) || hi(b.Values) < lo(a.Values)
}

func minMax(v []float64, wantMax bool) float64 {
	best := v[0]
	for _, x := range v[1:] {
		if (x > best) == wantMax {
			best = x
		}
	}
	return best
}

// verdict compares set b against baseline a under the metric's bound.
func verdict(def metricDef, a, b summary) string {
	if (spread(a) > def.bound || spread(b) > def.bound) && !separated(a, b) {
		return "unresolved"
	}
	if worseBy(def, a, b) > def.bound {
		return "worse"
	}
	return "ok"
}

// compareReports prints, per workload and end-to-end metric, both
// medians and quartiles, the change, the bound and the verdict. It
// returns the number of comparisons that did not come out ok.
func compareReports(w io.Writer, a, b *report) int {
	notOK := 0
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, oka := ra[def.name]
			sb, okb := rb[def.name]
			if !oka || !okb {
				continue
			}
			v := verdict(def, sa, sb)
			if v != "ok" {
				notOK++
			}
			fmt.Fprintf(w, "%-15s %-17s %12.6g (%.6g, %.6g)  %12.6g (%.6g, %.6g)  %+7.2f%%  bound %4.0f%%  %s\n",
				wl.name, def.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*worseBy(def, sa, sb), 100*def.bound, v)
		}
	}
	return notOK
}
