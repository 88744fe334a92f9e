// Command pilotstudy regenerates every table and figure of the paper's
// evaluation (§4) from the simulated RIPE-Atlas-like platform:
//
//	pilotstudy                  # everything, at full paper scale
//	pilotstudy -table 4         # just Table 4
//	pilotstudy -figure 3        # just Figure 3
//	pilotstudy -scale 0.1       # a 1,000-probe quick run
//	pilotstudy -workers 8       # shard the sweep over 8 cores
//	pilotstudy -csv             # machine-readable Table 4
//	pilotstudy -accuracy        # ground-truth scoring of the technique
//	pilotstudy -faults          # resilience sweep under injected faults
//	pilotstudy -encryption      # DoT/DoH interception-vs-adoption sweep
//	pilotstudy -metrics         # print the run's full metric snapshot
//	pilotstudy -metrics-json f  # write the deterministic snapshot ("-" = stdout)
//	pilotstudy -pprof p         # capture p.cpu / p.heap profiles of the sweep
//	pilotstudy -trace f         # capture a runtime/trace of the sweep to f
//	pilotstudy -stream          # bounded-memory pipeline: fold records, retain none
//	pilotstudy -stream -records p      # also stream per-probe JSONL to p.shardK-of-N.jsonl
//	pilotstudy -stream -checkpoint-dir d       # persist shard checkpoints under d
//	pilotstudy -stream -checkpoint-dir d -resume  # resume a killed run, byte-identical output
//	pilotstudy -torture-seed 20260808 -scale 0.0128  # crash-torture campaign: kill/corrupt/resume cycles
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/render"
	"github.com/dnswatch/dnsloc/internal/study"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "study scale factor (1.0 = ~10,000 probes)")
		seed     = flag.Int64("seed", 0, "override the spec's deterministic seed")
		workers  = flag.Int("workers", 0, "parallel study shards (0 = all cores); output is identical at any count")
		table    = flag.Int("table", 0, "print only this table (1-5)")
		figure   = flag.Int("figure", 0, "print only this figure (3-4)")
		csv      = flag.Bool("csv", false, "emit Table 4 as CSV")
		jsonOut  = flag.String("json", "", "write the full per-probe results as JSON to this file")
		accuracy = flag.Bool("accuracy", false, "also print ground-truth accuracy scoring")
		ext      = flag.String("ext", "", "extension experiment: 'ttl' (hop ladders), 'patterns' (§4.1.1 families), or 'population' (platform bias)")
		faults   = flag.Bool("faults", false, "run the resilience sweep: verdict accuracy vs injected fault level (with -encryption: run the encryption sweep under a mid-level fault plane instead)")
		advSweep = flag.Bool("adversary", false, "run the adversary sweep: detection accuracy vs interceptor evasion level (L0-L4), CHAOS-only vs chaos+cert+drift fusion")
		encSweep = flag.Bool("encryption", false, "run the encryption sweep: interception rate and detection accuracy vs DoT/DoH adoption fraction, client profile, and middlebox policy")

		showMetrics = flag.Bool("metrics", false, "print the full metric snapshot (stable + diagnostic) after the run")
		metricsJSON = flag.String("metrics-json", "", "write the deterministic (stable-only) metric snapshot as JSON to this file; '-' for stdout")
		pprofPrefix = flag.String("pprof", "", "capture CPU and heap profiles of the sweep to <prefix>.cpu and <prefix>.heap")
		tracePath   = flag.String("trace", "", "capture a runtime/trace of the sweep to this file (go tool trace <file>)")

		stream     = flag.Bool("stream", false, "streaming bounded-memory pipeline: fold each record into the aggregates on completion instead of retaining it; output is byte-identical to the in-memory pipeline")
		recordsOut = flag.String("records", "", "(with -stream) stream per-probe records as JSONL to <prefix>.shardK-of-N.jsonl, one file per shard")
		ckptDir    = flag.String("checkpoint-dir", "", "(with -stream) persist per-shard checkpoints under this directory")
		ckptEvery  = flag.Int("checkpoint-every", 1000, "(with -stream -checkpoint-dir) records per checkpoint")
		resume     = flag.Bool("resume", false, "(with -stream -checkpoint-dir) resume from the directory's checkpoints; the finished run is byte-identical to an uninterrupted one")
		stopAfter  = flag.Int("stop-after", 0, "(with -stream) halt each shard after this many records without a final checkpoint — simulates a mid-flight kill for checkpoint testing")

		tortureSeed   = flag.Int64("torture-seed", 0, "run the crash-torture campaign with this fault-schedule seed: repeated kill/corrupt/resume cycles whose final output must be byte-identical to an undisturbed run (reproduces the CI crash-torture job locally)")
		tortureCycles = flag.Int("torture-cycles", 0, "(with -torture-seed) kill/corrupt/resume cycles to run (0 = 30)")
	)
	flag.Parse()

	if *advSweep && (*faults || *encSweep) {
		fmt.Fprintln(os.Stderr, "pilotstudy: -adversary runs its own sweep; it does not combine with -faults or -encryption")
		os.Exit(2)
	}
	if *stream {
		if *jsonOut != "" || *ext != "" {
			fmt.Fprintln(os.Stderr, "pilotstudy: -stream retains no records; -json and -ext need the in-memory pipeline (use -records for streamed per-probe output)")
			os.Exit(2)
		}
		if (*faults || *advSweep || *encSweep) && (*recordsOut != "" || *ckptDir != "" || *stopAfter > 0) {
			fmt.Fprintln(os.Stderr, "pilotstudy: sweeps fold each cell into its own tables; -records, -checkpoint-dir, and -stop-after apply to single runs")
			os.Exit(2)
		}
	} else {
		for flagName, set := range map[string]bool{
			"-records": *recordsOut != "", "-checkpoint-dir": *ckptDir != "",
			"-resume": *resume, "-stop-after": *stopAfter > 0,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "pilotstudy: %s requires -stream\n", flagName)
				os.Exit(2)
			}
		}
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "pilotstudy: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if *ckptDir == "" {
		// -checkpoint-every has a default, so only an explicit setting
		// asks for checkpoints that would otherwise silently not happen.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-every" {
				fmt.Fprintln(os.Stderr, "pilotstudy: -checkpoint-every requires -checkpoint-dir")
				os.Exit(2)
			}
		})
	}

	// Tables 1-3 need no study run.
	if *table == 1 {
		fmt.Println(analysis.FormatTable1())
		return
	}
	if *table == 2 || *table == 3 {
		rows := study.ExampleScenario()
		if *table == 2 {
			fmt.Println(analysis.FormatTable2(rows))
		} else {
			fmt.Println(analysis.FormatTable3(rows))
		}
		return
	}

	spec := study.PaperSpec()
	if *scale != 1.0 {
		spec = spec.Scale(*scale)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	if *tortureSeed != 0 {
		runTorture(spec, nWorkers, *tortureSeed, *tortureCycles)
		return
	}
	if *tortureCycles != 0 {
		fmt.Fprintln(os.Stderr, "pilotstudy: -torture-cycles requires -torture-seed")
		os.Exit(2)
	}

	var (
		cells      []study.Spec
		sweepTable renderFunc
	)
	switch {
	case *advSweep:
		cells, sweepTable = adversarySweep(spec)
	case *encSweep:
		cells, sweepTable = encryptionSweep(spec, *faults)
	case *faults:
		cells, sweepTable = resilienceSweep(spec)
	}
	if cells != nil {
		fmt.Fprintf(os.Stderr, "sweep: %d probes x %d cells, %d worker(s)...\n", spec.TotalProbes, len(cells), nWorkers)
		start := time.Now()
		accs, err := analysis.Sweep(cells, study.StreamOptions{Workers: nWorkers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sweep complete in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(sweepTable(accs))
		return
	}

	fmt.Fprintf(os.Stderr, "building world: %d probes, %d interception seats, %d worker(s)...\n",
		spec.TotalProbes, spec.TotalSeats(), nWorkers)
	if *pprofPrefix != "" {
		f, err := os.Create(*pprofPrefix + ".cpu")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: creating cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: starting cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: creating trace file: %v\n", err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: starting trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	start := time.Now()
	progress := func(shard, workers, probes int, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "shard %d/%d: %d probes measured in %v\n",
			shard+1, workers, probes, elapsed.Round(time.Millisecond))
	}
	var (
		results  *study.Results        // in-memory pipeline only; nil with -stream
		acc      *analysis.Accumulator // both pipelines render tables from this
		snap     func(bool) *study.Snapshot
		measured int
		halted   bool
	)
	if *stream {
		opts := study.StreamOptions{
			Workers:         nWorkers,
			Progress:        progress,
			NewAccumulator:  func(int) study.Accumulator { return analysis.NewAccumulator() },
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			Resume:          *resume,
			StopAfterProbes: *stopAfter,
		}
		if *recordsOut != "" {
			opts.NewSink = jsonlSink(*recordsOut)
		}
		res, err := study.RunStreamed(spec, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: %v\n", err)
			os.Exit(1)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "pilotstudy: %s\n", e)
		}
		if len(res.Errors) > 0 {
			os.Exit(1)
		}
		acc = res.Acc.(*analysis.Accumulator)
		snap = res.MetricsSnapshot
		measured = res.Folded + res.Skipped
		halted = res.Stopped
		fmt.Fprint(os.Stderr, render.KV([][2]string{
			{"probes folded", fmt.Sprintf("%d", res.Folded)},
			{"probes resumed from checkpoint", fmt.Sprintf("%d", res.Skipped)},
		}))
	} else {
		results = study.RunSharded(spec, study.EngineOptions{Workers: nWorkers, Progress: progress})
		acc = analysis.NewAccumulator()
		for _, rec := range results.Records {
			acc.Fold(rec)
		}
		snap = results.MetricsSnapshot
		measured = len(results.Records)
	}
	if *tracePath != "" {
		trace.Stop()
		fmt.Fprintf(os.Stderr, "wrote %s (view with: go tool trace %s)\n", *tracePath, *tracePath)
	}
	if *pprofPrefix != "" {
		pprof.StopCPUProfile()
		if f, err := os.Create(*pprofPrefix + ".heap"); err == nil {
			runtime.GC()
			pprof.WriteHeapProfile(f) //nolint:errcheck
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s.cpu and %s.heap\n", *pprofPrefix, *pprofPrefix)
		} else {
			fmt.Fprintf(os.Stderr, "pilotstudy: creating heap profile: %v\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "study complete: %d probes in %v\n",
		measured, time.Since(start).Round(time.Millisecond))
	if halted {
		// A simulated kill: the tables would be partial, so don't render
		// them — the run exists only to leave checkpoints behind.
		fmt.Fprintf(os.Stderr, "halted by -stop-after; resume with -stream -checkpoint-dir %s -resume\n", *ckptDir)
		return
	}

	if *metricsJSON != "" {
		blob := snap(false).JSON()
		if *metricsJSON == "-" {
			os.Stdout.Write(blob) //nolint:errcheck
		} else if err := os.WriteFile(*metricsJSON, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: writing %s: %v\n", *metricsJSON, err)
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsJSON)
		}
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: encoding json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pilotstudy: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}

	// Both pipelines render from the accumulator: the slice-based Build*
	// functions are wrappers over the same fold, so the bytes match the
	// pre-streaming output exactly.
	t4 := acc.Table4()
	switch {
	case *csv:
		// CSV replaces the rendered tables but must not short-circuit
		// -accuracy or -ext below.
		fmt.Print(analysis.CSVTable4(t4))
	case *table == 4:
		fmt.Println(analysis.FormatTable4(t4))
	case *table == 5:
		fmt.Println(analysis.FormatTable5(acc.Table5()))
	case *figure == 3:
		fmt.Println(analysis.FormatFigure3(acc.Figure3(15)))
	case *figure == 4:
		fmt.Println(analysis.FormatFigure4(acc.Figure4(15)))
	default:
		fmt.Println(analysis.FormatTable1())
		rows := study.ExampleScenario()
		fmt.Println(analysis.FormatTable2(rows))
		fmt.Println(analysis.FormatTable3(rows))
		fmt.Println(analysis.FormatTable4(t4))
		fmt.Println(analysis.FormatTable5(acc.Table5()))
		fmt.Println(analysis.FormatFigure3(acc.Figure3(15)))
		fmt.Println(analysis.FormatFigure4(acc.Figure4(15)))
	}
	if *accuracy {
		fmt.Println(analysis.FormatAccuracy(acc.Accuracy()))
	}
	if *showMetrics {
		fmt.Println("== Run metrics ==")
		fmt.Print(snap(true).Text())
	}
	switch *ext {
	case "ttl":
		fmt.Fprintf(os.Stderr, "running TTL ladders from intercepted probes...\n")
		stats := study.RunTTLExtension(results, 50, 10)
		fmt.Println(analysis.FormatTTLExtension(stats))
	case "patterns":
		fmt.Println(analysis.FormatPatternBreakdown(analysis.BuildPatternBreakdown(results, "IPv4")))
		fmt.Println(analysis.FormatPatternBreakdown(analysis.BuildPatternBreakdown(results, "IPv6")))
	case "population":
		fmt.Println(analysis.FormatPopulation(analysis.BuildPopulation(results)))
	}
}

// runTorture drives the randomized crash-torture campaign: an
// undisturbed reference run, then repeated kill/corrupt/resume cycles
// on fault-injected filesystems, ending with a byte-level diff of the
// tables, Stable metrics, and sink files. Exits non-zero on any
// divergence or fatal abort.
func runTorture(spec study.Spec, workers int, seed int64, cycles int) {
	dir, err := os.MkdirTemp("", "pilotstudy-torture-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pilotstudy: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(os.Stderr, "crash-torture: %d probes, %d workers, seed %d, scratch %s\n",
		spec.TotalProbes, workers, seed, dir)
	start := time.Now()
	rep, err := study.RunTorture(study.TortureOptions{
		Spec:           spec,
		Workers:        workers,
		Cycles:         cycles,
		Seed:           seed,
		Dir:            dir,
		NewAccumulator: func(int) study.Accumulator { return analysis.NewAccumulator() },
		Render: func(res *study.StreamResults) string {
			acc := res.Acc.(*analysis.Accumulator)
			t4 := acc.Table4()
			return analysis.FormatTable4(t4) + analysis.CSVTable4(t4) +
				analysis.FormatTable5(acc.Table5()) +
				analysis.FormatFigure3(acc.Figure3(10)) +
				analysis.FormatFigure4(acc.Figure4(10)) +
				analysis.FormatAccuracy(acc.Accuracy()) +
				string(res.MetricsSnapshot(false).JSON())
		},
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crash-torture: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pilotstudy: torture campaign aborted: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(rep.Summary())
	fmt.Fprintf(os.Stderr, "crash-torture complete in %v\n", time.Since(start).Round(time.Millisecond))
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "pilotstudy: tortured run DIVERGED from undisturbed run:\n%s\n", rep.Diff)
		os.Exit(1)
	}
}

// jsonlSink opens per-shard JSONL record sinks under the given path
// prefix. On resume the shard's file is truncated back to its
// checkpoint cursor (dropping records written after the last checkpoint
// and any partial line the kill left) and reopened in append mode, so
// the finished file is byte-identical to an uninterrupted run's.
func jsonlSink(prefix string) func(k, workers, resumedAt int) (study.RecordSink, error) {
	return func(k, workers, resumedAt int) (study.RecordSink, error) {
		path := fmt.Sprintf("%s.shard%d-of-%d.jsonl", prefix, k, workers)
		if err := study.TruncateSinkFile(path, resumedAt); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return study.NewJSONLSink(f), nil
	}
}
