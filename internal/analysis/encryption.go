package analysis

import (
	"fmt"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/render"
	"github.com/dnswatch/dnsloc/internal/study"
)

// EncryptionRow is one cell of the encrypted-transport sweep: the same
// study world measured with an Adoption fraction of the fleet speaking
// Transport while every interceptor applies Policy to the encrypted
// channel. The sweep's claim, mirroring the paper's §6 countermeasure
// discussion: encryption removes on-path interception exactly where the
// client profile refuses to downgrade, while opportunistic profiles
// keep the detection signal (a terminating middlebox exposes its
// persona, a blocking one forces the client back onto interceptable
// Do53) — and no profile buys privacy with false positives.
type EncryptionRow struct {
	// Adoption is the upgraded fraction of the fleet (0 = Do53 baseline).
	Adoption float64
	// Transport is the upgraded probes' client profile.
	Transport core.TransportMode
	// Policy is the interceptors' treatment of encrypted DNS.
	Policy dnsserver.EncryptedPolicy

	// Responded counts probes that produced a report; Adopted counts the
	// responding probes that ran the encrypted transport.
	Responded, Adopted int

	// Flagged counts reports that flag interception; AdoptedFlagged is
	// the same count restricted to the adopting cohort — its rate over
	// Adopted is the sweep's "interception rate under encryption".
	Flagged, AdoptedFlagged int

	// TP/FP/FN/TN score detection against the effective ground truth:
	// what interception the probe's resolution path actually suffers
	// once transport and policy are accounted for (see
	// Accumulator.EncryptionRow).
	TP, FP, FN, TN int
}

// Accuracy is the detection accuracy against effective truth.
func (r EncryptionRow) Accuracy() float64 {
	if r.Responded == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(r.Responded)
}

// AdoptedFlaggedRate is the interception rate of the adopting cohort.
func (r EncryptionRow) AdoptedFlaggedRate() float64 {
	if r.Adopted == 0 {
		return 0
	}
	return float64(r.AdoptedFlagged) / float64(r.Adopted)
}

// EncryptionRow reads the sweep row of a cell measured under e. An
// adoption of zero is the Do53 baseline.
//
// Detection is scored against effective truth: the interception a
// probe's resolution path actually suffers once transport and policy
// apply. Non-adopting probes keep their Do53 ground truth. For an
// adopting probe on a true interceptor:
//
//   - pass-through lets the encrypted flow reach the real operator, so
//     the path is clean;
//   - block plus an opportunistic client forces a downgrade to Do53,
//     which the interceptor owns, so it stays intercepted;
//   - block or terminate against a strict client yields no resolution
//     at all, so nothing is intercepted;
//   - terminate plus an opportunistic client hands the session to the
//     interceptor's own resolver, so it stays intercepted.
//
// Where adopting interceptees are effectively clean, their Do53 true
// positives become false positives and their misses true negatives.
func (a *Accumulator) EncryptionRow(e study.Encryption) EncryptionRow {
	s, adopted := a.Score, a.AdoptedScore
	row := EncryptionRow{
		Adoption:       e.Adoption,
		Transport:      e.Transport,
		Policy:         e.Policy,
		Responded:      s.responded(),
		Adopted:        adopted.responded(),
		Flagged:        s.TruePositives + s.FalsePositives,
		AdoptedFlagged: adopted.TruePositives + adopted.FalsePositives,
		TP:             s.TruePositives,
		FP:             s.FalsePositives,
		FN:             s.FalseNegatives,
		TN:             s.TrueNegatives,
	}
	keepsInterceptor := (e.Policy == dnsserver.EncBlock || e.Policy == dnsserver.EncTerminate) &&
		!e.Transport.Strict()
	if !keepsInterceptor {
		row.TP -= adopted.TruePositives
		row.FP += adopted.TruePositives
		row.FN -= adopted.FalseNegatives
		row.TN += adopted.FalseNegatives
	}
	return row
}

// FormatEncryption renders the interception-vs-adoption matrix.
func FormatEncryption(rows []EncryptionRow) string {
	out := [][]string{{
		"Policy", "Transport", "Adoption", "Responded", "Adopted",
		"Flagged", "Enc. Intercepted", "TP", "FP", "FN", "TN", "Accuracy",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Policy.String(), r.Transport.String(),
			fmt.Sprintf("%.2f", r.Adoption),
			fmt.Sprint(r.Responded), fmt.Sprint(r.Adopted),
			fmt.Sprint(r.Flagged),
			fmt.Sprintf("%.3f", r.AdoptedFlaggedRate()),
			fmt.Sprint(r.TP), fmt.Sprint(r.FP), fmt.Sprint(r.FN), fmt.Sprint(r.TN),
			fmt.Sprintf("%.3f", r.Accuracy()),
		})
	}
	return "Encryption sweep: interception and detection vs DoT/DoH adoption\n" +
		"(Enc. Intercepted = flagged share of the adopting cohort;\n" +
		" accuracy scored against effective truth under the policy)\n\n" +
		render.Table(out)
}
