package analysis

import (
	"fmt"

	"github.com/dnswatch/dnsloc/internal/render"
)

// AdversaryRow is one rung of the interceptor evasion ladder: the same
// study world measured against increasingly evasive interceptors
// (dnsserver.Adversary), scored twice — once on the CHAOS-only verdict
// and once on the three-signal fusion. The sweep's claim: evasion
// erodes the CHAOS signal from L1 up, the cert and drift signals win
// the detection back, and no scorer ever buys accuracy with false
// positives.
type AdversaryRow struct {
	// Level is the adversary ladder rung (0 = honest interceptors).
	Level int
	// Responded counts probes that produced a report.
	Responded int
	// Chaos* is the CHAOS-only detection confusion at this level.
	ChaosTP, ChaosFP, ChaosFN, ChaosTN int
	// Fused* is the three-signal fusion's confusion.
	FusedTP, FusedFP, FusedFN, FusedTN int
	// Localized counts chaos true positives whose verdict matched
	// ground truth (hidden-as-unknown included).
	Localized int
	// CertFlagged counts probes with at least one certificate-
	// consistency mismatch; Drifted counts probes whose answer set
	// drifted across re-probe rounds.
	CertFlagged, Drifted int
	// Quarantined counts probes whose measurement panicked and was
	// contained.
	Quarantined int
}

// ChaosAccuracy is the CHAOS-only detection accuracy at this level.
func (r AdversaryRow) ChaosAccuracy() float64 {
	if r.Responded == 0 {
		return 0
	}
	return float64(r.ChaosTP+r.ChaosTN) / float64(r.Responded)
}

// FusedAccuracy is the fusion's detection accuracy at this level.
func (r AdversaryRow) FusedAccuracy() float64 {
	if r.Responded == 0 {
		return 0
	}
	return float64(r.FusedTP+r.FusedTN) / float64(r.Responded)
}

// adversaryLevelNames label the ladder rungs in output.
var adversaryLevelNames = map[int]string{
	0: "honest",
	1: "replay",
	2: "forge",
	3: "bogon-gate",
	4: "rate-limit",
}

// AdversaryRow reads the matrix row of a cell measured against the
// given adversary level. Cells run with the certificate oracle and one
// drift re-probe round at every level, the honest baseline included, so
// the fused column is measured under identical instrumentation
// throughout and the adversary is the only variable.
func (a *Accumulator) AdversaryRow(level int) AdversaryRow {
	chaos, fused := a.Score, a.FusedScore
	return AdversaryRow{
		Level:       level,
		Responded:   chaos.responded(),
		ChaosTP:     chaos.TruePositives,
		ChaosFP:     chaos.FalsePositives,
		ChaosFN:     chaos.FalseNegatives,
		ChaosTN:     chaos.TrueNegatives,
		FusedTP:     fused.TruePositives,
		FusedFP:     fused.FalsePositives,
		FusedFN:     fused.FalseNegatives,
		FusedTN:     fused.TrueNegatives,
		Localized:   chaos.localized(),
		CertFlagged: a.CertFlagged,
		Drifted:     a.Drifted,
		Quarantined: a.Quarantined,
	}
}

// FormatAdversary renders the accuracy-vs-adversary-level matrix.
func FormatAdversary(rows []AdversaryRow) string {
	out := [][]string{{
		"Level", "Evasion", "Responded",
		"cTP", "cFP", "cFN", "cTN", "Chaos Acc.",
		"fTP", "fFP", "fFN", "fTN", "Fused Acc.",
		"Localized", "Cert", "Drift", "Quarantined",
	}}
	for _, r := range rows {
		name := adversaryLevelNames[r.Level]
		if name == "" {
			name = fmt.Sprintf("L%d", r.Level)
		}
		out = append(out, []string{
			fmt.Sprintf("L%d", r.Level), name,
			fmt.Sprint(r.Responded),
			fmt.Sprint(r.ChaosTP), fmt.Sprint(r.ChaosFP), fmt.Sprint(r.ChaosFN), fmt.Sprint(r.ChaosTN),
			fmt.Sprintf("%.3f", r.ChaosAccuracy()),
			fmt.Sprint(r.FusedTP), fmt.Sprint(r.FusedFP), fmt.Sprint(r.FusedFN), fmt.Sprint(r.FusedTN),
			fmt.Sprintf("%.3f", r.FusedAccuracy()),
			fmt.Sprint(r.Localized),
			fmt.Sprint(r.CertFlagged), fmt.Sprint(r.Drifted),
			fmt.Sprint(r.Quarantined),
		})
	}
	return "Adversary sweep: detection accuracy vs interceptor evasion level\n" +
		"(c* = CHAOS-only verdict, f* = chaos+cert+drift fusion)\n\n" +
		render.Table(out)
}
