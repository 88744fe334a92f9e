package study_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/study"
)

// -update regenerates the golden corpus in place:
//
//	go test ./internal/study -run TestPilotGolden -update
//
// Regenerate only when an intentional change moves the pilot's output,
// and eyeball the diff — the corpus is the study engine's contract.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current engine output")

// TestPilotGolden pins a small (64-probe) pilot run's entire visible
// surface — rendered tables, the CSV export, and the deterministic
// metric snapshot — against files committed under testdata/golden. Any
// unintentional drift in seat dealing, verdict logic, rendering, or
// metric accounting shows up here as a readable diff rather than as a
// silently different paper table.
func TestPilotGolden(t *testing.T) {
	spec := study.PaperSpec().Scale(0.0064) // ~64 probes
	res := study.RunSharded(spec, study.EngineOptions{Workers: 2})
	if len(res.Errors) != 0 {
		t.Fatalf("shard errors: %v", res.Errors)
	}

	t4 := analysis.BuildTable4(res)
	outputs := map[string][]byte{
		"table4.txt":   []byte(analysis.FormatTable4(t4)),
		"table5.txt":   []byte(analysis.FormatTable5(analysis.BuildTable5(res))),
		"table4.csv":   []byte(analysis.CSVTable4(t4)),
		"metrics.json": res.MetricsSnapshot(false).JSON(),
	}

	checkGolden(t, outputs)
}

// checkGolden compares (or, under -update, rewrites) named outputs
// against testdata/golden, shared by the pilot and adversary corpora.
func checkGolden(t *testing.T, outputs map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, blob := range outputs {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files in %s", len(outputs), dir)
		return
	}

	for name, got := range outputs {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading golden %s (run with -update to create): %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from golden copy (rerun with -update if intentional):\n--- want ---\n%s--- got ---\n%s",
				name, want, got)
		}
	}
}

// TestAdversaryGolden pins the adversary sweep's visible surface at
// every ladder rung: per-level paper tables and metric snapshots, plus
// the accuracy-vs-level matrix the sweep exists to produce. Each level
// runs the same 64-probe pilot world with the certificate oracle and
// one drift re-probe round enabled, so the committed files document
// exactly how each evasion level reshapes the tables and how the fused
// scorer recovers the CHAOS losses without false positives.
func TestAdversaryGolden(t *testing.T) {
	outputs := map[string][]byte{}
	var rows []analysis.AdversaryRow
	for lvl := 0; lvl <= 4; lvl++ {
		spec := study.PaperSpec().Scale(0.0064) // ~64 probes
		spec.Adversary = lvl
		spec.CertCheck = true
		spec.DriftRounds = 1
		res := study.RunSharded(spec, study.EngineOptions{Workers: 2})
		if len(res.Errors) != 0 {
			t.Fatalf("L%d shard errors: %v", lvl, res.Errors)
		}
		t4 := analysis.BuildTable4(res)
		outputs[fmt.Sprintf("adv-l%d.table4.txt", lvl)] = []byte(analysis.FormatTable4(t4))
		outputs[fmt.Sprintf("adv-l%d.table5.txt", lvl)] = []byte(analysis.FormatTable5(analysis.BuildTable5(res)))
		outputs[fmt.Sprintf("adv-l%d.metrics.json", lvl)] = res.MetricsSnapshot(false).JSON()
		acc := analysis.NewAccumulator()
		for _, rec := range res.Records {
			acc.Fold(rec)
		}
		rows = append(rows, acc.AdversaryRow(lvl))
	}
	outputs["adversary_matrix.txt"] = []byte(analysis.FormatAdversary(rows))

	for _, r := range rows {
		if r.ChaosFP != 0 || r.FusedFP != 0 {
			t.Errorf("L%d has false positives (chaos %d, fused %d); no scorer may buy accuracy with FPs",
				r.Level, r.ChaosFP, r.FusedFP)
		}
	}

	checkGolden(t, outputs)
}
