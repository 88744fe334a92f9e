package analysis

import (
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/study"
)

// TestRunAdversarySweep drives the full sweep at pilot scale over the
// honest baseline and the forge rung, and asserts the matrix's core
// claims: a perfect baseline, a chaos-accuracy drop under forgery that
// the fusion recovers, and zero false positives from either scorer.
func TestRunAdversarySweep(t *testing.T) {
	spec := study.PaperSpec().Scale(0.0064)
	spec.CertCheck = true
	spec.DriftRounds = 1
	forgeSpec := spec
	forgeSpec.Adversary = 2
	accs, err := Sweep([]study.Spec{spec, forgeSpec}, study.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := []AdversaryRow{accs[0].AdversaryRow(0), accs[1].AdversaryRow(2)}
	honest, forge := rows[0], rows[1]

	if honest.Level != 0 || forge.Level != 2 {
		t.Fatalf("row levels = %d, %d", honest.Level, forge.Level)
	}
	if honest.Responded == 0 || forge.Responded != honest.Responded {
		t.Fatalf("responded = %d, %d; want equal and nonzero", honest.Responded, forge.Responded)
	}
	if honest.ChaosAccuracy() != 1.0 || honest.FusedAccuracy() != 1.0 {
		t.Errorf("honest accuracy = %.3f/%.3f, want 1.000", honest.ChaosAccuracy(), honest.FusedAccuracy())
	}
	if forge.ChaosAccuracy() >= honest.ChaosAccuracy() {
		t.Errorf("forge chaos accuracy %.3f did not drop", forge.ChaosAccuracy())
	}
	if forge.FusedAccuracy() <= forge.ChaosAccuracy() {
		t.Errorf("fusion %.3f did not beat chaos-only %.3f under forgery",
			forge.FusedAccuracy(), forge.ChaosAccuracy())
	}
	for _, r := range rows {
		if r.ChaosFP != 0 || r.FusedFP != 0 {
			t.Errorf("L%d false positives: chaos %d, fused %d", r.Level, r.ChaosFP, r.FusedFP)
		}
	}
	if forge.CertFlagged == 0 || forge.Drifted == 0 {
		t.Errorf("forge level: cert=%d drift=%d flagged probes, want both nonzero",
			forge.CertFlagged, forge.Drifted)
	}
	if honest.Drifted != 0 {
		t.Errorf("honest level drifted %d probes; personas are stable", honest.Drifted)
	}

	out := FormatAdversary(rows)
	for _, want := range []string{"Chaos Acc.", "Fused Acc.", "honest", "forge", "L2"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAdversary output missing %q:\n%s", want, out)
		}
	}
}

// TestAdversaryRowAccuracyGuards: an empty row divides by nothing.
func TestAdversaryRowAccuracyGuards(t *testing.T) {
	var r AdversaryRow
	if r.ChaosAccuracy() != 0 || r.FusedAccuracy() != 0 {
		t.Errorf("empty row accuracy = %.3f/%.3f, want 0", r.ChaosAccuracy(), r.FusedAccuracy())
	}
}

// TestFormatAdversaryUnknownLevel: rungs past the ladder still render.
func TestFormatAdversaryUnknownLevel(t *testing.T) {
	out := FormatAdversary([]AdversaryRow{{Level: 7, Responded: 1, ChaosTN: 1, FusedTN: 1}})
	if !strings.Contains(out, "L7") {
		t.Errorf("unknown level not rendered:\n%s", out)
	}
}
