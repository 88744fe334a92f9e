package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// defaultSeed is study.PaperSpec's seed; the pinned digests hold for it.
var defaultSeed = study.PaperSpec().Seed

// pinnedDigests maps each workload to the SHA-256 of its rendered
// artifacts at the default seed.
//
//go:embed testdata/digests.json
var digestsJSON []byte

var pinnedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/digests.json: %v", err))
	}
	return m
}()

// workload is one fixed-size pilot-study batch job. Every repetition
// runs it to completion, so throughput is reported at its input size.
type workload struct {
	name string
	// scale multiplies study.PaperSpec's 10,000 probes.
	scale float64
	// planes turns on the simulation planes the workload exercises.
	planes func(*study.Spec)
	// streamed selects study.RunStreamed; otherwise study.RunSharded
	// retains every record and the benchmark folds them afterwards.
	streamed bool
	// durable gives each shard a JSONL sink file and fsynced checkpoints.
	durable bool
	// fused adds the three-signal fusion's accuracy to the artifacts and
	// its false positives to the gates.
	fused bool
}

// Sizes keep one repetition near two seconds on a 2-core host, so a
// measured run holds several repetitions, and peak RSS under 600 MiB.
var workloads = []*workload{
	{
		name:  "paper-mem",
		scale: 2,
	},
	{
		name:     "stream-durable",
		scale:    2,
		streamed: true,
		durable:  true,
	},
	{
		name:     "faulted",
		scale:    1,
		streamed: true,
		planes: func(s *study.Spec) {
			fp := netsim.PresetFault(0.5, s.Seed+9000)
			s.Fault = &fp
			s.Retry = &core.RetryPolicy{MaxAttempts: 3}
		},
	},
	{
		name:     "hardened",
		scale:    1,
		streamed: true,
		fused:    true,
		planes: func(s *study.Spec) {
			s.Adversary = 2
			s.CertCheck = true
			s.DriftRounds = 1
			s.Encryption = &study.Encryption{
				Adoption:  0.5,
				Transport: core.TransportDoTStrict,
				Policy:    dnsserver.EncTerminate,
			}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// spec builds the workload's input from the seed at the given scale.
func (w *workload) spec(seed int64, scale float64) study.Spec {
	s := study.PaperSpec().Scale(scale)
	s.Seed = seed
	if w.planes != nil {
		w.planes(&s)
	}
	return s
}

// repResult is one repetition's outcome; a child process prints it as
// JSON for the parent.
type repResult struct {
	Digest string `json:"digest"`
	Probes int    `json:"probes"`
	// Failed counts probes without a record plus quarantined ones.
	Failed int `json:"failed"`
	// Gates lists every correctness gate the repetition failed.
	Gates   []string           `json:"gates,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// runRep runs one repetition of w in this process. A traced repetition
// wraps every public seam with timers and records a CPU profile; its
// simulated output must not change.
func runRep(w *workload, seed int64, scale float64, traced bool) (*repResult, error) {
	tmp, err := os.MkdirTemp("", "dnsloc-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	spec := w.spec(seed, scale)
	workers := runtime.GOMAXPROCS(0) // the engines' default shard count
	if workers > spec.TotalProbes {
		workers = spec.TotalProbes
	}
	var tr *tracer
	if traced {
		tr = newTracer(workers)
	}

	// The engine calls ClientWrapper just before each measured probe; the
	// first call per shard marks the end of that shard's set-up.
	var start time.Time
	var steal0 time.Duration
	firstProbe := make([]atomic.Int64, workers)
	firstSteal := make([]atomic.Int64, workers)
	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		shard := p.ID % workers
		if firstProbe[shard].CompareAndSwap(0, int64(time.Since(start))) {
			firstSteal[shard].Store(int64(stolen() - steal0))
		}
		if tr != nil {
			return tr.wrapClient(c, shard)
		}
		return c
	}

	var prof *os.File
	if traced {
		if prof, err = os.Create(filepath.Join(tmp, "cpu.pprof")); err != nil {
			return nil, err
		}
		// 250 Hz rather than pprof's 100 Hz, so a small layer is not
		// rounded to zero; at 1 kHz a 2-core Linux host recorded only a
		// quarter of the CPU time getrusage reported.
		// StartCPUProfile keeps the rate already set (and says so on stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}

	steal0, start = stolen(), time.Now()
	acc, reg, produced, err := runEngine(w, spec, tmp, tr)
	var artifacts string
	if err == nil {
		artifacts = render(acc, w.fused)
	}
	wall, steal := time.Since(start), stolen()-steal0
	if traced {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}

	// Set-up ends when the last shard starts measuring. The time metrics
	// leave out the time the hypervisor gave the CPUs to other guests:
	// stolen time summed over the CPUs, spread evenly across them since the
	// shards keep every CPU busy.
	var setup, setupSteal time.Duration
	for i := range firstProbe {
		if d := time.Duration(firstProbe[i].Load()); d > setup {
			setup, setupSteal = d, time.Duration(firstSteal[i].Load())
		}
	}
	cpus := time.Duration(runtime.NumCPU())
	setupHeld, wallHeld := setup-setupSteal/cpus, wall-steal/cpus
	counts := registryCounts(reg)
	failed := spec.TotalProbes - produced + int(counts["study.quarantined"])
	probes := float64(spec.TotalProbes)
	cpuUs := cpuTime().Seconds() * 1e6 / probes
	sum := sha256.Sum256([]byte(artifacts))
	r := &repResult{
		Digest: hex.EncodeToString(sum[:]),
		Probes: spec.TotalProbes,
		Failed: failed,
		Metrics: map[string]float64{
			"setup_s":              setupHeld.Seconds(),
			"probes_per_s":         probes / (wallHeld - setupHeld).Seconds(),
			"cpu_us_per_probe":     cpuUs,
			"peak_rss_mb":          peakRSSMiB(),
			"failed_share":         float64(failed) / probes,
			"wall_s":               wallHeld.Seconds(),
			"host.steal_s":         steal.Seconds(),
			"raw.setup_s":          setup.Seconds(),
			"raw.probes_per_s":     probes / (wall - setup).Seconds(),
			"raw.cpu_us_per_probe": cpuUs,
		},
	}
	if fp := acc.Accuracy().FalsePositives; fp != 0 {
		r.Gates = append(r.Gates, fmt.Sprintf("accuracy false positives = %d", fp))
	}
	if fp := acc.FusedAccuracy().FalsePositives; w.fused && fp != 0 {
		r.Gates = append(r.Gates, fmt.Sprintf("fused accuracy false positives = %d", fp))
	}
	if r.Failed != 0 {
		r.Gates = append(r.Gates, fmt.Sprintf("failed_share = %d/%d", r.Failed, r.Probes))
	}

	addRuntimeMetrics(r.Metrics, probes)
	addCountMetrics(r.Metrics, counts, tmp)
	if traced {
		layers, err := attributeProfile(prof.Name())
		if err != nil {
			return nil, err
		}
		tr.addMetrics(r.Metrics, layers, counts, wallHeld, workers)
	}
	return r, nil
}

// runEngine drives the workload's engine through its public API with
// default options and returns the merged accumulator and registry, and
// the number of records produced.
func runEngine(w *workload, spec study.Spec, tmp string, tr *tracer) (acc *analysis.Accumulator, reg *metrics.Registry, produced int, err error) {
	if !w.streamed {
		res := study.RunSharded(spec, study.EngineOptions{})
		var fold study.Accumulator = analysis.NewAccumulator()
		if tr != nil {
			fold = tr.newAccumulator()
		}
		for _, rec := range res.Records {
			fold.Fold(rec)
		}
		return unwrapAccumulator(fold), res.Metrics, len(res.Records), nil
	}

	opts := study.StreamOptions{
		NewAccumulator: func(int) study.Accumulator { return analysis.NewAccumulator() },
	}
	if tr != nil {
		opts.NewAccumulator = func(int) study.Accumulator { return tr.newAccumulator() }
	}
	if w.durable {
		sinkDir := filepath.Join(tmp, "sink")
		if err := os.Mkdir(sinkDir, 0o755); err != nil {
			return nil, nil, 0, err
		}
		opts.NewSink = func(k, workers, _ int) (study.RecordSink, error) {
			f, err := os.Create(filepath.Join(sinkDir, fmt.Sprintf("shard%d-of-%d.jsonl", k, workers)))
			if err != nil {
				return nil, err
			}
			var s study.RecordSink = study.NewJSONLSink(f)
			if tr != nil {
				s = tr.wrapSink(s)
			}
			return s, nil
		}
		opts.CheckpointDir = filepath.Join(tmp, "checkpoints")
		opts.CheckpointEvery = 1000
		if tr != nil {
			opts.FS = tr.wrapFS()
		}
	}
	res, err := study.RunStreamed(spec, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	return unwrapAccumulator(res.Acc), res.Metrics, res.Folded + res.Skipped, nil
}

// render concatenates every artifact the digest covers.
func render(acc *analysis.Accumulator, fused bool) string {
	t4 := acc.Table4()
	var b strings.Builder
	b.WriteString(analysis.FormatTable4(t4))
	b.WriteString(analysis.CSVTable4(t4))
	b.WriteString(analysis.FormatTable5(acc.Table5()))
	b.WriteString(analysis.FormatFigure3(acc.Figure3(15)))
	b.WriteString(analysis.FormatFigure4(acc.Figure4(15)))
	b.WriteString(analysis.FormatAccuracy(acc.Accuracy()))
	if fused {
		b.WriteString(analysis.FormatAccuracy(acc.FusedAccuracy()))
	}
	return b.String()
}

// registryCounts flattens the merged registry (diagnostic metrics
// included) into name → value; histograms give their sample count.
func registryCounts(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range reg.Snapshot(true).Metrics {
		out[m.Name] = float64(m.Value)
	}
	return out
}

// addCountMetrics adds the per-layer counts that need no tracing: they
// come from the merged registry and the sink files, and repeat exactly.
func addCountMetrics(m, c map[string]float64, tmp string) {
	m["study.records_retained"] = c["study.records_retained"]
	m["core.attempts"] = c["core.attempts"]
	m["core.retries"] = c["core.retries"]
	m["core.answer_ratio"] = ratio(c["core.outcome_answers"], c["core.attempts"])
	m["netsim.hops"] = c["netsim.client_hops_forwarded"]
	m["netsim.route_lookups"] = c["netsim.route_lookups"]
	m["netsim.route_cache_hit_ratio"] = ratio(c["netsim.route_cache_hits"], c["netsim.route_lookups"])
	var drops float64
	for name, v := range c {
		if strings.HasPrefix(name, "netsim.fault_") {
			drops += v
		}
	}
	m["netsim.fault_drops"] = drops
	m["netsim.nat_table_peak"] = c["netsim.nat_table_peak_entries"]
	m["dnsserver.forwarder_queries"] = c["dnsserver.forwarder_queries"]
	m["dnsserver.forwarder_cache_hit_ratio"] = ratio(c["dnsserver.forwarder_cache_hits"],
		c["dnsserver.forwarder_cache_hits"]+c["dnsserver.forwarder_cache_misses"])
	m["dnsserver.chaos_local"] = c["dnsserver.forwarder_chaos_local"]
	m["checkpoint.count"] = c["study.checkpoints_written"]
	var sinkBytes int64
	entries, _ := os.ReadDir(filepath.Join(tmp, "sink")) // absent without a sink
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			sinkBytes += info.Size()
		}
	}
	m["sink.bytes"] = float64(sinkBytes)
}

// addRuntimeMetrics adds the Go runtime's allocation and GC totals for
// the whole process.
func addRuntimeMetrics(m map[string]float64, probes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.mallocs_per_probe"] = float64(ms.Mallocs) / probes
	m["runtime.alloc_bytes_per_probe"] = float64(ms.TotalAlloc) / probes
	m["runtime.gc_cycles"] = float64(ms.NumGC)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is the time the hypervisor has run other guests on this
// machine's virtual CPUs, summed over them: the steal column of
// /proc/stat, in USER_HZ ticks of 10 ms. It is 0 where /proc/stat is
// unavailable.
func stolen() time.Duration {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMiB is this process's VmHWM, or 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
