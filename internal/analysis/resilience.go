package analysis

import (
	"fmt"

	"github.com/dnswatch/dnsloc/internal/render"
)

// ResilienceRow is one fault level of the resilience sweep: the same
// study world measured through an increasingly hostile path, scored
// against ground truth. The sweep's claim is the paper's conservative
// rule under stress — fault-shaped outcomes (timeouts, garbage) must
// degrade detection toward "not intercepted" or "inconclusive", never
// toward false interception verdicts.
type ResilienceRow struct {
	// Level is the PresetFault severity (0 = clean baseline).
	Level float64
	// Responded counts probes that produced a report.
	Responded int
	// Detection confusion at this level.
	TP, FP, FN, TN int
	// Localized counts true positives whose verdict matched ground
	// truth (including hidden-as-unknown, which is the right answer).
	Localized int
	// Timeouts and Garbage total the fault-shaped final outcomes
	// recorded across all reports' StepFault entries.
	Timeouts, Garbage int
	// Inconclusive counts probes with at least one step degraded to
	// inconclusive.
	Inconclusive int
	// Quarantined counts probes whose measurement panicked and was
	// contained.
	Quarantined int
}

// Accuracy is the detection accuracy (TP+TN over responded).
func (r ResilienceRow) Accuracy() float64 {
	if r.Responded == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(r.Responded)
}

// ResilienceRow reads the sweep row of a cell measured at the given
// fault level: netsim.PresetFault(level) as every shard network's
// default profile, or no fault plane at all at level 0.
func (a *Accumulator) ResilienceRow(level float64) ResilienceRow {
	s := a.Score
	return ResilienceRow{
		Level:        level,
		Responded:    s.responded(),
		TP:           s.TruePositives,
		FP:           s.FalsePositives,
		FN:           s.FalseNegatives,
		TN:           s.TrueNegatives,
		Localized:    s.localized(),
		Timeouts:     a.Timeouts,
		Garbage:      a.Garbage,
		Inconclusive: a.Inconclusive,
		Quarantined:  a.Quarantined,
	}
}

// FormatResilience renders the sweep as a table.
func FormatResilience(rows []ResilienceRow) string {
	out := [][]string{{
		"Fault Level", "Responded", "TP", "FP", "FN", "TN",
		"Localized", "Timeouts", "Garbage", "Inconcl.", "Quarantined", "Accuracy",
	}}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.Level),
			fmt.Sprint(r.Responded),
			fmt.Sprint(r.TP), fmt.Sprint(r.FP), fmt.Sprint(r.FN), fmt.Sprint(r.TN),
			fmt.Sprint(r.Localized),
			fmt.Sprint(r.Timeouts), fmt.Sprint(r.Garbage),
			fmt.Sprint(r.Inconclusive), fmt.Sprint(r.Quarantined),
			fmt.Sprintf("%.3f", r.Accuracy()),
		})
	}
	return "Resilience sweep: verdict accuracy vs injected fault level\n\n" +
		render.Table(out)
}
