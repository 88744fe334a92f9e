package dnsloc

import (
	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/study"
)

// PilotOptions configure a pilot-study run.
type PilotOptions struct {
	// Scale shrinks or grows the ~10,000-probe world; 0 means 1.0.
	Scale float64
	// Seed overrides the deterministic default when nonzero.
	Seed int64
	// Workers shards the run across this many parallel worlds; 0 means
	// GOMAXPROCS. Output is byte-identical at any worker count.
	Workers int
}

// PilotOutput carries the rendered tables and figures of the paper's
// evaluation, regenerated from a fresh simulated study.
type PilotOutput struct {
	// Probes and Intercepted summarize the run.
	Probes      int
	Intercepted int

	Table1   string // location queries per operator
	Table2   string // worked example: location-query responses
	Table3   string // worked example: version.bind responses
	Table4   string // intercepted probes per resolver
	Table5   string // version.bind strings of CPE interceptors
	Figure3  string // transparency per organization
	Figure4  string // interception location per country/organization
	Accuracy string // ground-truth scoring (simulator-only bonus)
}

// RunPilotStudy builds the simulated RIPE-Atlas-like world, runs the
// localization technique from every responding probe, and renders every
// table and figure of the paper's §4.
func RunPilotStudy(opts PilotOptions) PilotOutput {
	spec := study.PaperSpec()
	if opts.Scale != 0 && opts.Scale != 1.0 {
		spec = spec.Scale(opts.Scale)
	}
	if opts.Seed != 0 {
		spec.Seed = opts.Seed
	}
	res, err := study.RunStreamed(spec, study.StreamOptions{
		Workers:        opts.Workers,
		NewAccumulator: func(int) study.Accumulator { return analysis.NewAccumulator() },
	})
	if err != nil {
		panic(err) // unreachable: no checkpoint directory, one accumulator type
	}
	acc := res.Acc.(*analysis.Accumulator)
	exampleRows := study.ExampleScenario()

	t4 := acc.Table4()
	return PilotOutput{
		Probes:      res.Folded,
		Intercepted: t4.DistinctIntercepted,
		Table1:      analysis.FormatTable1(),
		Table2:      analysis.FormatTable2(exampleRows),
		Table3:      analysis.FormatTable3(exampleRows),
		Table4:      analysis.FormatTable4(t4),
		Table5:      analysis.FormatTable5(acc.Table5()),
		Figure3:     analysis.FormatFigure3(acc.Figure3(15)),
		Figure4:     analysis.FormatFigure4(acc.Figure4(15)),
		Accuracy:    analysis.FormatAccuracy(acc.Accuracy()),
	}
}
