// Command bench times the pilot-study engines end to end and layer by
// layer, and checks that their simulated output stays correct.
//
//	bench                                   # 4 workloads x 5 interleaved repetitions
//	bench -workload faulted -seed 7 -seconds 12
//	bench -trace 1                          # then one traced repetition per workload
//	bench -json a.json                      # also write the results
//	bench -compare a.json b.json            # regression verdicts, b against a
//
// Each repetition runs in a fresh child process (this binary,
// re-executed), so peak RSS and GC state are per repetition. When one
// workload is run, the last line of standard output is a JSON result.
// The exit status is non-zero when any correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all, interleaved)")
		seed     = flag.Int64("seed", defaultSeed, "input seed; the pinned digests hold for the default")
		seconds  = flag.Float64("seconds", 0, "measure each workload for about this long instead of 5 repetitions")
		trace    = flag.Int("trace", 0, "1: add one traced repetition per workload and report per-layer metrics")
		jsonOut  = flag.String("json", "", "write the results to this file")
		compareA = flag.String("compare", "", "compare two -json files: -compare a.json b.json")
		child    = flag.String("child", "", "internal: run one repetition of this workload and print it as JSON")
		calib    = flag.Bool("calibrate", false, "internal: run the calibration kernel and print its CPU seconds")
	)
	flag.Parse()

	switch {
	case *calib:
		fmt.Println(calibrate().Seconds())
		return
	case *child != "":
		os.Exit(runChild(*child, *seed, *trace == 1))
	case *compareA != "":
		if flag.NArg() != 1 {
			fatalf("-compare takes two files: -compare a.json b.json")
		}
		if compareReports(os.Stdout, readReport(*compareA), readReport(flag.Arg(0))) > 0 {
			os.Exit(1)
		}
		return
	}

	sel := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		sel = []*workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	rep := measure(exe, sel, *seed, *trace == 1, time.Duration(*seconds*float64(time.Second)))
	rep.print(os.Stdout, sel)
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("encoding results: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			fatalf("writing %s: %v", *jsonOut, err)
		}
	}
	if len(sel) == 1 {
		rep.printResult(os.Stdout, sel[0], *trace == 1)
	}
	if len(rep.gates) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runChild is the child process: one repetition, printed as JSON.
func runChild(name string, seed int64, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	r, err := runRep(w, seed, w.scale, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// report is the outcome of one invocation; it is also the -json format.
type report struct {
	Host      map[string]any                `json:"host"`
	Seed      int64                         `json:"seed"`
	Digests   map[string]string             `json:"digests"`
	Workloads map[string]map[string]summary `json:"workloads"`

	untraced, traced map[string][]*repResult
	// gates lists every failed correctness gate.
	gates             []string
	attempted, failed int
}

// reps is the number of untraced rounds without a time budget.
const reps = 5

// measure runs the selected workloads round-robin, one untraced
// repetition of each per round, each in its own child process. With a
// time budget it stops before a round that would overrun it, after at
// least two rounds. Tracing then adds one traced repetition per
// workload, outside the budget.
func measure(exe string, sel []*workload, seed int64, trace bool, budget time.Duration) *report {
	rep := &report{
		Host: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "cpu": cpuModel(),
		},
		Seed:      seed,
		Digests:   map[string]string{},
		Workloads: map[string]map[string]summary{},
		untraced:  map[string][]*repResult{},
		traced:    map[string][]*repResult{},
	}
	start := time.Now()
	for round := 0; ; round++ {
		if budget > 0 {
			if elapsed := time.Since(start); round >= 2 && elapsed+elapsed/time.Duration(round) > budget {
				break
			}
		} else if round >= reps {
			break
		}
		for _, w := range sel {
			rep.run(exe, w, seed, false)
		}
	}
	for _, w := range sel {
		if trace {
			rep.run(exe, w, seed, true)
		}
		rep.summarize(w)
	}
	return rep
}

// run spawns one repetition and records its outcome.
func (rep *report) run(exe string, w *workload, seed int64, traced bool) {
	probes := w.spec(seed, w.scale).TotalProbes
	rep.attempted += probes
	r, err := spawn(exe, w, seed, traced)
	if err != nil {
		rep.failed += probes
		rep.gates = append(rep.gates, fmt.Sprintf("%s: repetition failed: %v", w.name, err))
		return
	}
	rep.failed += r.Failed
	for _, g := range r.Gates {
		rep.gates = append(rep.gates, fmt.Sprintf("%s: %s", w.name, g))
	}
	if traced {
		rep.traced[w.name] = append(rep.traced[w.name], r)
	} else {
		rep.untraced[w.name] = append(rep.untraced[w.name], r)
	}
}

// spawn times the calibration kernel in one child process, then runs one
// repetition in another and scales its time metrics to the reference
// speed.
func spawn(exe string, w *workload, seed int64, traced bool) (*repResult, error) {
	cmd := exec.Command(exe, "-calibrate")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	cal, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || cal <= 0 {
		return nil, fmt.Errorf("calibration printed %q", out)
	}

	args := []string{"-child", w.name, "-seed", fmt.Sprint(seed)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd = exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if out, err = cmd.Output(); err != nil {
		return nil, err
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	r.scaleToReference(cal)
	return &r, nil
}

// scaleToReference rescales the time metrics to a host on which the
// calibration kernel takes refCalibrationS instead of cal seconds. The
// measured values stay under the "raw." names.
func (r *repResult) scaleToReference(cal float64) {
	f := refCalibrationS / cal
	m := r.Metrics
	m["host.calibration_s"] = cal
	m["setup_s"] *= f
	m["cpu_us_per_probe"] *= f
	m["wall_s"] *= f
	m["probes_per_s"] /= f
}

// summarize checks the digest gate and reduces a workload's repetitions
// to medians and quartiles: end-to-end metrics from the untraced ones,
// per-layer metrics from the traced ones.
func (rep *report) summarize(w *workload) {
	untraced, traced := rep.untraced[w.name], rep.traced[w.name]
	all := append(append([]*repResult(nil), untraced...), traced...)
	if len(all) == 0 {
		return
	}
	want, pinned := pinnedDigests[w.name]
	if rep.Seed != defaultSeed || !pinned {
		want = all[0].Digest // every repetition must agree
	}
	for _, r := range all {
		if r.Digest != want {
			rep.gates = append(rep.gates, fmt.Sprintf("%s: digest %s, want %s", w.name, r.Digest, want))
		}
	}
	rep.Digests[w.name] = all[0].Digest

	sums := map[string]summary{}
	if len(untraced) > 0 {
		for _, def := range endToEnd {
			sums[def.name] = summarize(def.unit, values(untraced, def.name))
		}
		for _, def := range hostMetrics {
			sums[def.name] = summarize(def.unit, values(untraced, def.name))
		}
		wall := summarize("s", values(untraced, "wall_s")).Median
		for _, r := range traced {
			r.Metrics["trace.overhead"] = r.Metrics["wall_s"]/wall - 1
		}
	}
	for _, name := range layerNames(traced) {
		sums[name] = summarize(layerUnit(name), values(traced, name))
	}
	rep.Workloads[w.name] = sums
}

func values(rs []*repResult, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}

// print writes one line per workload and metric, the digest of a
// non-default seed, and every failed gate.
func (rep *report) print(out io.Writer, sel []*workload) {
	for _, w := range sel {
		sums := rep.Workloads[w.name]
		line := func(name string) {
			if s, ok := sums[name]; ok {
				fmt.Fprintf(out, "%s %s %.7g %s (%.7g, %.7g, n=%d)\n", w.name, name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
		for _, def := range endToEnd {
			line(def.name)
		}
		for _, def := range hostMetrics {
			line(def.name)
		}
		for _, name := range layerNames(rep.traced[w.name]) {
			line(name)
		}
		if rep.Seed != defaultSeed {
			fmt.Fprintf(out, "%s digest %s\n", w.name, rep.Digests[w.name])
		}
	}
	for _, g := range rep.gates {
		fmt.Fprintf(os.Stderr, "bench: gate failed: %s\n", g)
	}
}

// printResult writes the one-line JSON result for a single workload:
// the end-to-end metrics, or with tracing the per-layer ones.
func (rep *report) printResult(out io.Writer, w *workload, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	sums := rep.Workloads[w.name]
	add := func(name string) {
		if s, ok := sums[name]; ok {
			metrics[name] = value{s.Median, s.Unit}
		}
	}
	if trace {
		for _, def := range perLayer {
			if def.inResult {
				add(def.name)
			}
		}
	} else {
		for _, def := range endToEnd {
			if def.name != "failed_share" {
				add(def.name)
			}
		}
	}
	blob, err := json.Marshal(map[string]any{
		"correct":   len(rep.gates) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(out, "%s\n", blob)
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readReport(path string) *report {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		fatalf("decoding %s: %v", path, err)
	}
	return &r
}
