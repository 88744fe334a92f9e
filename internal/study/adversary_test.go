package study_test

import (
	"regexp"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// adversarySpec is a small study measured against evasive interceptors
// with the full signal suite (cert oracle + one drift round) enabled.
func adversarySpec(level int, faulted bool) study.Spec {
	spec := study.PaperSpec().Scale(0.02)
	spec.Adversary = level
	spec.CertCheck = true
	spec.DriftRounds = 1
	if faulted {
		fp := netsim.PresetFault(0.5, spec.Seed+9000)
		spec.Fault = &fp
		spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	}
	return spec
}

// rttLine matches the rendered round-trip time of one probe query.
// RTT depends on resolver-cache warmth, which legitimately varies with
// the shard layout (a pre-existing property of the base pipeline, not
// of the adversary), so the report comparison normalizes it away.
var rttLine = regexp.MustCompile(`rtt=[0-9.]+ms`)

// reportStrings renders every probe's full report (including the signal
// sections, which the export record does not carry) for byte
// comparison, with cache-warmth RTTs normalized out.
func reportStrings(res *study.Results) []string {
	out := make([]string, 0, len(res.Records))
	for _, rec := range res.Records {
		if rec.Report == nil {
			out = append(out, "<no report>")
			continue
		}
		out = append(out, rttLine.ReplaceAllString(rec.Report.String(), "rtt=*"))
	}
	return out
}

// TestAdversaryDeterminism is the ladder's sharding contract: every
// adversary draw — forged personas, bogon gating, per-client CHAOS
// budgets — is keyed by flow identity, never by arrival order, so the
// same seed produces byte-identical behaviour whether the study runs on
// one worker or four, with fault injection off or on. Run under -race
// in CI, this also shakes out unsynchronized adversary state.
func TestAdversaryDeterminism(t *testing.T) {
	scenarios := []struct {
		name    string
		level   int
		faulted bool
	}{
		{"clean-forge", 2, false},
		{"clean-rate-limit", 4, false},
		{"faulted-rate-limit", 4, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			spec := adversarySpec(sc.level, sc.faulted)

			serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
			if len(serial.Errors) != 0 {
				t.Fatalf("shard errors: %v", serial.Errors)
			}
			if n := len(serial.Quarantined()); n != 0 {
				t.Fatalf("%d probes quarantined, want 0", n)
			}
			wantExport := exportJSON(t, serial)
			wantReports := reportStrings(serial)

			parallel := study.RunSharded(spec, study.EngineOptions{Workers: 4})
			if len(parallel.Errors) != 0 {
				t.Fatalf("workers=4 shard errors: %v", parallel.Errors)
			}
			gotExport := exportJSON(t, parallel)
			gotReports := reportStrings(parallel)

			if len(gotExport) != len(wantExport) {
				t.Fatalf("workers=4: %d export records, want %d", len(gotExport), len(wantExport))
			}
			for i := range wantExport {
				if gotExport[i] != wantExport[i] {
					t.Fatalf("workers=4: export record %d differs:\n%s\n%s", i, gotExport[i], wantExport[i])
				}
			}
			for i := range wantReports {
				if gotReports[i] != wantReports[i] {
					t.Fatalf("workers=4: report %d differs:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
						i, wantReports[i], gotReports[i])
				}
			}
		})
	}
}

// TestAdversaryAccuracyContract pins the ladder's headline claim at
// test scale: from the forge rung up, CHAOS-only accuracy measurably
// drops below the honest baseline, the three-signal fusion wins the
// loss back, and neither scorer ever reports a false positive.
func TestAdversaryAccuracyContract(t *testing.T) {
	score := func(level int) (chaosAcc, fusedAcc float64, chaosFP, fusedFP int) {
		accs, err := analysis.Sweep([]study.Spec{adversarySpec(level, false)}, study.StreamOptions{Workers: 2})
		if err != nil {
			t.Fatalf("L%d: %v", level, err)
		}
		row := accs[0].AdversaryRow(level)
		return row.ChaosAccuracy(), row.FusedAccuracy(), row.ChaosFP, row.FusedFP
	}

	honestChaos, honestFused, cFP0, fFP0 := score(0)
	forgeChaos, forgeFused, cFP2, fFP2 := score(2)

	if honestChaos != 1.0 || honestFused != 1.0 {
		t.Errorf("honest baseline accuracy = chaos %.3f, fused %.3f; want 1.000 for both", honestChaos, honestFused)
	}
	if forgeChaos >= honestChaos {
		t.Errorf("forge-level chaos accuracy %.3f did not drop below honest %.3f", forgeChaos, honestChaos)
	}
	if forgeFused <= forgeChaos {
		t.Errorf("fusion %.3f did not recover accuracy over chaos-only %.3f at forge level", forgeFused, forgeChaos)
	}
	for _, fp := range []int{cFP0, fFP0, cFP2, fFP2} {
		if fp != 0 {
			t.Errorf("false positives present (honest c/f = %d/%d, forge c/f = %d/%d); want 0 everywhere",
				cFP0, fFP0, cFP2, fFP2)
			break
		}
	}
}
