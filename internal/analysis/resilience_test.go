package analysis

import (
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestRunResilienceSweep drives the fault sweep at pilot scale over a
// clean baseline and one impaired level, pinning the conservative rule:
// faults erode detection toward misses and inconclusive steps, never
// toward false interception verdicts.
func TestRunResilienceSweep(t *testing.T) {
	spec := study.PaperSpec().Scale(0.0064)
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	faultedSpec := spec
	fp := netsim.PresetFault(0.6, spec.Seed+9000)
	faultedSpec.Fault = &fp
	accs, err := Sweep([]study.Spec{spec, faultedSpec}, study.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := []ResilienceRow{accs[0].ResilienceRow(0), accs[1].ResilienceRow(0.6)}
	clean, faulted := rows[0], rows[1]

	if clean.Accuracy() != 1.0 {
		t.Errorf("clean baseline accuracy = %.3f, want 1.000", clean.Accuracy())
	}
	// Even the clean world records a few timeouts (bogon canaries dying
	// at AS borders), so compare levels rather than expecting zero.
	if faulted.Timeouts+faulted.Garbage <= clean.Timeouts+clean.Garbage {
		t.Errorf("faulted row (%d timeouts, %d garbage) shows no more fault evidence than clean (%d, %d)",
			faulted.Timeouts, faulted.Garbage, clean.Timeouts, clean.Garbage)
	}
	for _, r := range rows {
		if r.FP != 0 {
			t.Errorf("level %.2f: %d false positives, want 0", r.Level, r.FP)
		}
		if r.Quarantined != 0 {
			t.Errorf("level %.2f: %d quarantined probes", r.Level, r.Quarantined)
		}
		if r.Responded == 0 {
			t.Errorf("level %.2f: nothing responded", r.Level)
		}
	}

	out := FormatResilience(rows)
	for _, want := range []string{"Fault Level", "Accuracy", "0.60"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatResilience output missing %q:\n%s", want, out)
		}
	}
}

// TestResilienceRowAccuracyGuard: an empty row divides by nothing.
func TestResilienceRowAccuracyGuard(t *testing.T) {
	var r ResilienceRow
	if r.Accuracy() != 0 {
		t.Errorf("empty row accuracy = %.3f, want 0", r.Accuracy())
	}
}
