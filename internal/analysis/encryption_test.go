package analysis

import (
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestRunEncryptionSweep sweeps every policy x transport pair at
// adoptions 0, 0.5 and 1, plus one half-adoption cell under a mid-level
// fault plane. Every half-adoption row read off its accumulator must
// equal the per-record scoring of the same cell's records. The rows
// must show the sweep's claim shapes: full strict adoption under a
// terminating middlebox zeroes the adopting cohort's interception rate,
// full opportunistic adoption under a blocking one restores the Do53
// ground truth, and no cell buys its accuracy with false positives.
func TestRunEncryptionSweep(t *testing.T) {
	var grid []study.Encryption
	for _, pol := range []dnsserver.EncryptedPolicy{dnsserver.EncPass, dnsserver.EncBlock, dnsserver.EncTerminate} {
		for _, tr := range []core.TransportMode{core.TransportDoTOpportunistic, core.TransportDoTStrict, core.TransportDoH} {
			for _, ad := range []float64{0, 0.5, 1.0} {
				grid = append(grid, study.Encryption{Adoption: ad, Transport: tr, Policy: pol})
			}
		}
	}
	spec := study.PaperSpec().Scale(0.02)
	cells := make([]study.Spec, len(grid), len(grid)+1)
	for i := range grid {
		cells[i] = spec
		cells[i].Encryption = &grid[i]
	}
	faulted := spec
	fp := netsim.PresetFault(0.5, spec.Seed+9000)
	faulted.Fault = &fp
	faulted.Retry = &core.RetryPolicy{MaxAttempts: 3}
	faulted.Encryption = &study.Encryption{Adoption: 0.5, Transport: core.TransportDoTOpportunistic, Policy: dnsserver.EncTerminate}
	cells, grid = append(cells, faulted), append(grid, *faulted.Encryption)

	accs, err := Sweep(cells, study.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]EncryptionRow, len(grid))
	corrected := 0
	for i, acc := range accs {
		rows[i] = acc.EncryptionRow(grid[i])
		if grid[i].Adoption != 0.5 {
			continue
		}
		res := study.RunSharded(cells[i], study.EngineOptions{Workers: 2})
		if len(res.Errors) != 0 {
			t.Fatalf("cell %d shard errors: %v", i, res.Errors)
		}
		if want := scoreRecords(grid[i], res.Records); rows[i] != want {
			t.Errorf("cell %d: accumulator row %+v, per-record %+v", i, rows[i], want)
		}
		if rows[i].TP != acc.Score.TruePositives || rows[i].FN != acc.Score.FalseNegatives {
			corrected++
		}
	}
	if corrected == 0 {
		t.Error("no cell moved an adopter off its Do53 truth; the effective-truth correction went unexercised")
	}

	byCell := func(pol dnsserver.EncryptedPolicy, tr core.TransportMode, ad float64) EncryptionRow {
		for _, r := range rows {
			if r.Policy == pol && r.Transport == tr && r.Adoption == ad {
				return r
			}
		}
		t.Fatalf("no row for %s/%s/%.2f", pol, tr, ad)
		return EncryptionRow{}
	}

	baseline := byCell(dnsserver.EncBlock, core.TransportDoTOpportunistic, 0)
	if baseline.Adopted != 0 || baseline.AdoptedFlaggedRate() != 0 {
		t.Errorf("adoption-0 baseline has %d adopters", baseline.Adopted)
	}
	if baseline.Flagged == 0 {
		t.Error("baseline world intercepts nothing; the sweep has no signal to measure")
	}

	strictTerm := byCell(dnsserver.EncTerminate, core.TransportDoTStrict, 1.0)
	if strictTerm.Adopted == 0 || strictTerm.AdoptedFlagged != 0 {
		t.Errorf("strict+terminate at full adoption: %d/%d adopters flagged, want 0",
			strictTerm.AdoptedFlagged, strictTerm.Adopted)
	}

	oppBlock := byCell(dnsserver.EncBlock, core.TransportDoTOpportunistic, 1.0)
	if oppBlock.Flagged != baseline.Flagged {
		t.Errorf("opportunistic+block flagged %d, want the Do53 ground truth %d (downgraded clients stay interceptable)",
			oppBlock.Flagged, baseline.Flagged)
	}

	for _, r := range rows {
		if r.FP != 0 {
			t.Errorf("%s/%s/%.2f: %d false positives, want 0", r.Policy, r.Transport, r.Adoption, r.FP)
		}
		if r.Responded == 0 {
			t.Errorf("%s/%s/%.2f: nothing responded", r.Policy, r.Transport, r.Adoption)
		}
		if acc := r.Accuracy(); acc < baseline.Accuracy() {
			t.Errorf("%s/%s/%.2f accuracy = %.3f below baseline %.3f",
				r.Policy, r.Transport, r.Adoption, acc, baseline.Accuracy())
		}
	}

	out := FormatEncryption(rows)
	for _, want := range []string{"Policy", "Adoption", "Enc. Intercepted", "dot-strict", "terminate", "Accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatEncryption output missing %q:\n%s", want, out)
		}
	}
}

// TestEncryptionRowGuards: empty rows divide by nothing.
func TestEncryptionRowGuards(t *testing.T) {
	var r EncryptionRow
	if r.Accuracy() != 0 {
		t.Errorf("empty row accuracy = %.3f, want 0", r.Accuracy())
	}
	if r.AdoptedFlaggedRate() != 0 {
		t.Errorf("empty row adopted-flagged rate = %.3f, want 0", r.AdoptedFlaggedRate())
	}
}

// effectiveTruth is the per-record reference for the effective ground
// truth Accumulator.EncryptionRow derives from counters: the probe's
// Do53 truth, cleared for an adopter whose encrypted channel the policy
// lets escape the interceptor or refuse it outright.
func effectiveTruth(rec *study.ProbeRecord, e study.Encryption) bool {
	truly := rec.Probe.Truth.Intercepted()
	if !truly || !rec.Probe.EncTransport.Encrypted() {
		return truly
	}
	switch e.Policy {
	case dnsserver.EncBlock, dnsserver.EncTerminate:
		return !e.Transport.Strict()
	default: // EncPass
		return false
	}
}

// scoreRecords is the per-record reference for EncryptionRow.
func scoreRecords(e study.Encryption, recs []*study.ProbeRecord) EncryptionRow {
	row := EncryptionRow{Adoption: e.Adoption, Transport: e.Transport, Policy: e.Policy}
	for _, rec := range recs {
		if rec.Report == nil {
			continue
		}
		row.Responded++
		adopted := rec.Probe.EncTransport.Encrypted()
		if adopted {
			row.Adopted++
		}
		flagged := rec.Report.Intercepted()
		if flagged {
			row.Flagged++
			if adopted {
				row.AdoptedFlagged++
			}
		}
		switch truth := effectiveTruth(rec, e); {
		case truth && flagged:
			row.TP++
		case truth && !flagged:
			row.FN++
		case !truth && flagged:
			row.FP++
		default:
			row.TN++
		}
	}
	return row
}

// TestEffectiveTruth enumerates the truth table the scoring rests on.
func TestEffectiveTruth(t *testing.T) {
	rec := func(intercepted bool, tr core.TransportMode) *study.ProbeRecord {
		p := &atlas.Probe{EncTransport: tr}
		if intercepted {
			p.Truth.Location = "cpe"
		}
		return &study.ProbeRecord{Probe: p}
	}
	cases := []struct {
		name string
		rec  *study.ProbeRecord
		pol  dnsserver.EncryptedPolicy
		tr   core.TransportMode
		want bool
	}{
		{"clean path stays clean", rec(false, core.TransportDoH), dnsserver.EncTerminate, core.TransportDoH, false},
		{"non-adopting keeps Do53 truth", rec(true, core.TransportDo53), dnsserver.EncTerminate, core.TransportDo53, true},
		{"pass lets adopters escape", rec(true, core.TransportDoH), dnsserver.EncPass, core.TransportDoH, false},
		{"block downgrades opportunistic into interception", rec(true, core.TransportDoTOpportunistic), dnsserver.EncBlock, core.TransportDoTOpportunistic, true},
		{"block starves strict instead", rec(true, core.TransportDoTStrict), dnsserver.EncBlock, core.TransportDoTStrict, false},
		{"terminate owns opportunistic sessions", rec(true, core.TransportDoTOpportunistic), dnsserver.EncTerminate, core.TransportDoTOpportunistic, true},
		{"terminate is refused by strict", rec(true, core.TransportDoH), dnsserver.EncTerminate, core.TransportDoH, false},
	}
	for _, c := range cases {
		e := study.Encryption{Adoption: 1, Transport: c.tr, Policy: c.pol}
		if got := effectiveTruth(c.rec, e); got != c.want {
			t.Errorf("%s: effectiveTruth = %v, want %v", c.name, got, c.want)
		}
	}
}
