package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/study"
)

// Tracing wraps every seam the engines expose; it must not change a
// single simulated byte, and every gate must pass, on every workload.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRep(w, defaultSeed, 0.05, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, defaultSeed, 0.05, true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			for _, r := range []*repResult{plain, traced} {
				if len(r.Gates) > 0 || r.Failed != 0 {
					t.Errorf("gates failed: %v (failed probes %d)", r.Gates, r.Failed)
				}
			}
			m := traced.Metrics
			if m["core.exchange.count"] != m["core.attempts"] {
				t.Errorf("timed %v exchanges, registry counted %v attempts", m["core.exchange.count"], m["core.attempts"])
			}
			if m["analysis.fold.count"] != float64(traced.Probes) {
				t.Errorf("timed %v folds for %d probes", m["analysis.fold.count"], traced.Probes)
			}
			if m["trace.cpu_s"] <= 0 {
				t.Errorf("trace.cpu_s = %v, want a profiled CPU time", m["trace.cpu_s"])
			}
		})
	}
}

// BENCHMARK.json restates the catalog for tools that read the benchmark
// from outside; it must not drift from the code that measures it.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}

	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}

	got, want = nil, nil
	for _, m := range doc.EndToEnd {
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, def := range endToEnd {
		if def.name == "failed_share" { // a gate, carried as "failed"
			continue
		}
		better := "lower"
		if def.higherBetter {
			better = "higher"
		}
		want = append(want, fmt.Sprintf("%s %s %s %g", def.name, def.unit, better, def.bound))
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %q, code %q", got, want)
	}

	got, want = nil, nil
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, def := range perLayer {
		if def.inResult {
			want = append(want, def.name+" "+def.unit)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer %q, code %q", got, want)
	}
}

func TestScaleToReference(t *testing.T) {
	r := &repResult{Metrics: map[string]float64{
		"setup_s": 1, "cpu_us_per_probe": 100, "wall_s": 4, "probes_per_s": 1000, "peak_rss_mb": 50,
		"raw.setup_s": 1,
	}}
	r.scaleToReference(2 * refCalibrationS) // a host at half the reference speed
	want := map[string]float64{
		"setup_s": 0.5, "cpu_us_per_probe": 50, "wall_s": 2, "probes_per_s": 2000, "peak_rss_mb": 50,
		"raw.setup_s": 1, "host.calibration_s": 2 * refCalibrationS,
	}
	for name, v := range want {
		if got := r.Metrics[name]; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

type fakeClient struct{}

func (fakeClient) Exchange(netip.AddrPort, *dnswire.Message) ([]*dnswire.Message, error) {
	return nil, nil
}

type fakeRTTClient struct{ fakeClient }

func (fakeRTTClient) ExchangeRTT(netip.AddrPort, *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	return nil, 42 * time.Millisecond, nil
}

func TestClientWrapperForwardsRTTExchanger(t *testing.T) {
	tr := newTracer(1)
	if _, ok := tr.wrapClient(fakeClient{}, 0).(core.RTTExchanger); ok {
		t.Error("wrapper of a plain client offers ExchangeRTT")
	}
	c, ok := tr.wrapClient(fakeRTTClient{}, 0).(core.RTTExchanger)
	if !ok {
		t.Fatal("wrapper hides the client's ExchangeRTT")
	}
	if _, rtt, _ := c.ExchangeRTT(netip.AddrPort{}, nil); rtt != 42*time.Millisecond {
		t.Errorf("ExchangeRTT returned %v, want the inner client's 42ms", rtt)
	}
	if got := len(tr.exchanges[0].each); got != 1 {
		t.Errorf("timed %d exchanges, want 1", got)
	}
}

type fakeSink struct{}

func (fakeSink) Append(study.ProbeExport) error { return nil }
func (fakeSink) Close() error                   { return nil }

type flushSink struct {
	fakeSink
	flushed *int
}

func (s flushSink) Flush() error { *s.flushed++; return nil }

type statsSink struct{ fakeSink }

func (statsSink) SinkStats() study.SinkStats { return study.SinkStats{Retries: 3} }

type flushStatsSink struct {
	flushSink
	statsSink
}

func (flushStatsSink) Append(study.ProbeExport) error { return nil }
func (flushStatsSink) Close() error                   { return nil }

func TestSinkWrapperForwardsOptionalInterfaces(t *testing.T) {
	flushed := 0
	for _, inner := range []study.RecordSink{
		fakeSink{},
		flushSink{flushed: &flushed},
		statsSink{},
		flushStatsSink{flushSink: flushSink{flushed: &flushed}},
	} {
		tr := newTracer(1)
		s := tr.wrapSink(inner)
		_, innerFlushes := inner.(study.SinkFlusher)
		_, innerStats := inner.(study.SinkStatser)
		f, flushes := s.(study.SinkFlusher)
		st, stats := s.(study.SinkStatser)
		if flushes != innerFlushes || stats != innerStats {
			t.Errorf("%T: wrapper flushes=%v stats=%v, inner flushes=%v stats=%v",
				inner, flushes, stats, innerFlushes, innerStats)
			continue
		}
		if flushes {
			before := flushed
			if err := f.Flush(); err != nil || flushed != before+1 {
				t.Errorf("%T: Flush did not reach the inner sink", inner)
			}
			if tr.sinkFlushes.Load() != 1 {
				t.Errorf("%T: timed %d flushes, want 1", inner, tr.sinkFlushes.Load())
			}
		}
		if stats && st.SinkStats().Retries != 3 {
			t.Errorf("%T: SinkStats did not reach the inner sink", inner)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) and of [1, 2, 3, 4, 5].
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{name: "probes_per_s", higherBetter: true, bound: 0.10}
	set := func(vs ...float64) summary { return summarize("probes/s", vs) }
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{set(100, 101, 102, 103, 104), set(97, 98, 99, 100, 101), "ok"},
		{set(100, 101, 102, 103, 104), set(80, 81, 82, 83, 84), "worse"},
		{set(100, 101, 102, 103, 104), set(110, 111, 112, 113, 114), "ok"},
		// A spread wider than the bound cannot support a verdict...
		{set(60, 80, 100, 120, 140), set(60, 80, 100, 120, 140), "unresolved"},
		// ...unless every run of one set beats every run of the other.
		{set(100, 101, 102, 103, 104), set(50, 60, 75, 90, 99), "worse"},
	} {
		if got := verdict(rate, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Values, c.b.Values, got, c.want)
		}
	}
	zero := metricDef{name: "failed_share", bound: 0}
	if got := verdict(zero, set(0, 0, 0), set(0, 0, 0)); got != "ok" {
		t.Errorf("failed_share 0 -> 0: %s, want ok", got)
	}
	if got := verdict(zero, set(0, 0, 0), set(0.01, 0.01, 0.01)); got != "worse" {
		t.Errorf("failed_share 0 -> 0.01: %s, want worse", got)
	}
}

func TestSplitTraces(t *testing.T) {
	const text = `File: bench
Type: cpu
-----------+-------------------------------------------------------
      12ms   runtime.mallocgc
             github.com/dnswatch/dnsloc/internal/netsim.(*Router).AddRoute (inline)
             github.com/dnswatch/dnsloc/internal/study.(*WorldTemplate).Build
-----------+-------------------------------------------------------
       8ms   internal/runtime/maps.newarray
             github.com/dnswatch/dnsloc/internal/dnswire.Unpack
             github.com/dnswatch/dnsloc/internal/study.measure
-----------+-------------------------------------------------------
       4ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
       4ms   runtime.futex
             runtime.mstart
-----------+-------------------------------------------------------
`
	p, err := splitTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"netsim": 12 * time.Millisecond, "dnswire": 8 * time.Millisecond,
		"gc": 4 * time.Millisecond, "other": 4 * time.Millisecond,
	}
	for k, v := range want {
		if p.buckets[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, p.buckets[k], v)
		}
	}
	if p.total != 28*time.Millisecond || p.build != 12*time.Millisecond {
		t.Errorf("total %v build %v, want 28ms and 12ms", p.total, p.build)
	}
}
