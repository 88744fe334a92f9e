package study_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestHeavyInterceptionSpec runs a world with far more interception than
// the paper observed (every seat count x5 on a small fleet) to check
// the pipeline does not depend on interception being rare: analysis
// identities hold and the detector still makes no detection errors.
func TestHeavyInterceptionSpec(t *testing.T) {
	spec := study.PaperSpec().Scale(0.15)
	for i := range spec.Seats {
		spec.Seats[i].Count *= 2
	}
	// Personas must cover the doubled CPE seat count.
	spec.CPEPersonas = append(spec.CPEPersonas, spec.CPEPersonas...)
	spec.Seed = 777

	res := study.Run(study.BuildWorld(spec))
	acc := analysis.BuildAccuracy(res)
	if acc.FalsePositives != 0 || acc.FalseNegatives != 0 {
		t.Errorf("detection errors under heavy interception: fp=%d fn=%d",
			acc.FalsePositives, acc.FalseNegatives)
	}
	t4 := analysis.BuildTable4(res)
	if t4.DistinctIntercepted != acc.TruePositives {
		t.Errorf("identity broken: distinct=%d tp=%d", t4.DistinctIntercepted, acc.TruePositives)
	}
	if t4.DistinctIntercepted < 60 {
		t.Errorf("only %d intercepted; heavy spec did not take", t4.DistinctIntercepted)
	}
	f4 := analysis.BuildFigure4(res, 15)
	if f4.CPE+f4.ISP+f4.Unknown != t4.DistinctIntercepted {
		t.Errorf("figure4 does not partition: %d+%d+%d != %d",
			f4.CPE, f4.ISP, f4.Unknown, t4.DistinctIntercepted)
	}
	// Per-resolver counts never exceed the distinct total... per family.
	for _, row := range t4.Rows {
		if row.InterceptedV4 > t4.DistinctIntercepted {
			t.Errorf("%s intercepted %d > distinct %d", row.Resolver, row.InterceptedV4, t4.DistinctIntercepted)
		}
	}
	_ = publicdns.All
}

// renderTorture is the torture campaign's deterministic output
// surface: every table, figure, and accuracy aggregate plus the Stable
// metrics snapshot — the same bytes renderStream compares.
func renderTorture(res *study.StreamResults) string {
	acc := res.Acc.(*analysis.Accumulator)
	t4 := acc.Table4()
	return analysis.FormatTable4(t4) + analysis.CSVTable4(t4) +
		analysis.FormatTable5(acc.Table5()) +
		analysis.FormatFigure3(acc.Figure3(10)) +
		analysis.FormatFigure4(acc.Figure4(10)) +
		analysis.FormatAccuracy(acc.Accuracy()) +
		string(res.MetricsSnapshot(false).JSON())
}

// TestCrashTortureStreamedPipeline is the robustness layer's headline
// acceptance test: dozens of randomized kill/corrupt/resume cycles on
// fault-injected filesystems — torn checkpoint writes, failed fsyncs,
// bit-rotted checkpoint generations (including one round where BOTH
// generations of a shard rot), torn and garbage-appended sink tails —
// after which the tables, CSV sinks, and Stable metrics snapshot must
// be byte-identical to an undisturbed 4-worker run, with zero fatal
// aborts.
func TestCrashTortureStreamedPipeline(t *testing.T) {
	cycles := 32
	if testing.Short() {
		cycles = 6
	}
	rep, err := study.RunTorture(study.TortureOptions{
		Spec:           study.PaperSpec().Scale(0.0128),
		Workers:        4,
		Cycles:         cycles,
		Seed:           20260808,
		Dir:            t.TempDir(),
		NewAccumulator: func(int) study.Accumulator { return analysis.NewAccumulator() },
		Render:         renderTorture,
	})
	if err != nil {
		t.Fatalf("torture campaign aborted: %v", err)
	}
	t.Logf("\n%s", rep.Summary())
	if !rep.Passed() {
		t.Fatalf("tortured run diverged from undisturbed run: %s", rep.Diff)
	}
	if rep.Cycles != cycles || rep.Kills != cycles-1 {
		t.Errorf("campaign ran %d cycles / %d kills, want %d / %d", rep.Cycles, rep.Kills, cycles, cycles-1)
	}
	if rep.Corruptions["both_generations_corrupt"] == 0 {
		t.Error("the both-generations-corrupt case never ran")
	}
	if rep.CheckpointRecoveries == 0 {
		t.Error("no checkpoint recovery was ever exercised")
	}
	if len(rep.FaultCounts) == 0 {
		t.Error("the fault schedules injected nothing")
	}
}

// TestScaleSpecInvariants checks Scale() never zeroes a nonempty group
// and keeps persona coverage for CPE seats.
func TestScaleSpecInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		factor := 0.01 + r.Float64()*1.5
		spec := study.PaperSpec().Scale(factor)
		cpe := 0
		for _, g := range spec.Seats {
			if g.Count <= 0 {
				return false
			}
			if g.Loc == isp.LocCPE {
				cpe += g.Count
			}
		}
		return len(spec.CPEPersonas) == cpe && spec.TotalProbes > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
