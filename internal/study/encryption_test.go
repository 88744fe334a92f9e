package study_test

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// encryptionSpec is a small study with the encrypted-transport plane
// enabled: an adoption fraction of the fleet speaks the given client
// profile while every interceptor applies the given policy.
func encryptionSpec(adoption float64, tr core.TransportMode, pol dnsserver.EncryptedPolicy, faulted bool) study.Spec {
	spec := study.PaperSpec().Scale(0.02)
	spec.Encryption = &study.Encryption{Adoption: adoption, Transport: tr, Policy: pol}
	if faulted {
		fp := netsim.PresetFault(0.5, spec.Seed+9000)
		spec.Fault = &fp
		spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	}
	return spec
}

// TestEncryptionDeterminism is the encrypted plane's sharding contract:
// session tickets, handshake RTTs, downgrade decisions, and the
// adoption draw itself are all pure functions of flow identity and the
// seed, never of arrival order or worker count — so the same spec is
// byte-identical at any worker count, clean or faulted. Run
// under -race in CI this also shakes out unsynchronized session state.
func TestEncryptionDeterminism(t *testing.T) {
	scenarios := []struct {
		name    string
		tr      core.TransportMode
		pol     dnsserver.EncryptedPolicy
		faulted bool
	}{
		{"clean-opportunistic-terminate", core.TransportDoTOpportunistic, dnsserver.EncTerminate, false},
		{"clean-strict-block", core.TransportDoTStrict, dnsserver.EncBlock, false},
		{"clean-doh-pass", core.TransportDoH, dnsserver.EncPass, false},
		{"faulted-opportunistic-terminate", core.TransportDoTOpportunistic, dnsserver.EncTerminate, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			spec := encryptionSpec(0.5, sc.tr, sc.pol, sc.faulted)

			serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
			if len(serial.Errors) != 0 {
				t.Fatalf("shard errors: %v", serial.Errors)
			}
			if n := len(quarantined(serial)); n != 0 {
				t.Fatalf("%d probes quarantined, want 0", n)
			}
			wantExport := exportJSON(t, serial)
			wantReports := reportStrings(serial)

			for _, grid := range []study.EngineOptions{
				{Workers: 4},
				{Workers: 2},
			} {
				parallel := study.RunSharded(spec, grid)
				if len(parallel.Errors) != 0 {
					t.Fatalf("workers=%d shard errors: %v", grid.Workers, parallel.Errors)
				}
				gotExport := exportJSON(t, parallel)
				gotReports := reportStrings(parallel)
				if len(gotExport) != len(wantExport) {
					t.Fatalf("workers=%d: %d export records, want %d",
						grid.Workers, len(gotExport), len(wantExport))
				}
				for i := range wantExport {
					if gotExport[i] != wantExport[i] {
						t.Fatalf("workers=%d: export record %d differs:\n%s\n%s",
							grid.Workers, i, gotExport[i], wantExport[i])
					}
				}
				for i := range wantReports {
					if gotReports[i] != wantReports[i] {
						t.Fatalf("workers=%d: report %d differs:\n--- serial ---\n%s\n--- parallel ---\n%s",
							grid.Workers, i, wantReports[i], gotReports[i])
					}
				}
			}
		})
	}
}

// TestEncryptionAcceptanceContract pins the sweep's headline claims at
// test scale:
//
//  1. a strict profile behind terminate-and-intercept middleboxes is
//     never flagged intercepted — the client refuses the interceptor's
//     certificate, so the adopting cohort's interception rate is zero;
//  2. the opportunistic profile keeps detection accuracy at least at
//     the Do53 baseline under every policy (downgrade or terminated
//     sessions both preserve the signal);
//  3. no cell ever buys its result with false positives.
func TestEncryptionAcceptanceContract(t *testing.T) {
	score := func(adoption float64, tr core.TransportMode, pol dnsserver.EncryptedPolicy) analysis.EncryptionRow {
		spec := encryptionSpec(adoption, tr, pol, false)
		accs, err := analysis.Sweep([]study.Spec{spec}, study.StreamOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s/%s: %v", pol, tr, err)
		}
		return accs[0].EncryptionRow(*spec.Encryption)
	}

	baseline := score(0, core.TransportDoTOpportunistic, dnsserver.EncTerminate)
	if baseline.Accuracy() != 1.0 {
		t.Fatalf("Do53 baseline accuracy = %.3f, want 1.000", baseline.Accuracy())
	}

	for _, tr := range []core.TransportMode{core.TransportDoTStrict, core.TransportDoH} {
		row := score(1.0, tr, dnsserver.EncTerminate)
		if row.Adopted == 0 {
			t.Fatalf("%s: no adopting probes at adoption 1.0", tr)
		}
		if row.AdoptedFlagged != 0 {
			t.Errorf("%s + terminate: %d adopting probes flagged, want 0 — a strict client must refuse the interceptor's certificate",
				tr, row.AdoptedFlagged)
		}
	}

	for _, pol := range []dnsserver.EncryptedPolicy{dnsserver.EncPass, dnsserver.EncBlock, dnsserver.EncTerminate} {
		row := score(1.0, core.TransportDoTOpportunistic, pol)
		if acc := row.Accuracy(); acc < baseline.Accuracy() {
			t.Errorf("opportunistic + %s accuracy = %.3f, below Do53 baseline %.3f", pol, acc, baseline.Accuracy())
		}
		if row.FP != 0 {
			t.Errorf("opportunistic + %s: %d false positives, want 0", pol, row.FP)
		}
	}

	// Block forces opportunistic clients back onto interceptable Do53:
	// the adopting cohort's interception rate must match the Do53
	// ground truth, not collapse to zero.
	blocked := score(1.0, core.TransportDoTOpportunistic, dnsserver.EncBlock)
	if blocked.AdoptedFlagged == 0 {
		t.Error("block + opportunistic flagged nothing: downgraded clients must still be detected")
	}
}
