package study_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// renderAll rasterizes every table and figure the study feeds, so the
// determinism tests compare exactly what the paper artifacts contain.
func renderAll(res *study.Results) string {
	acc := fold(res)
	t4 := acc.Table4()
	return analysis.FormatTable4(t4) + "\n" +
		analysis.CSVTable4(t4) + "\n" +
		analysis.FormatTable5(acc.Table5()) + "\n" +
		analysis.FormatFigure3(acc.Figure3(15)) + "\n" +
		analysis.FormatFigure4(acc.Figure4(15)) + "\n" +
		analysis.FormatAccuracy(acc.Accuracy())
}

// fold folds every record of an in-memory run into one accumulator, the
// way the streamed engine folds them as they complete.
func fold(res *study.Results) *analysis.Accumulator {
	acc := analysis.NewAccumulator()
	for _, rec := range res.Records {
		acc.Fold(rec)
	}
	return acc
}

// respondedTotals counts per-experiment availability — the Responded
// sets feed Table 4's "Total" columns and depend on the platform RNG
// stream, so they prove the pre-draw replays it faithfully.
func respondedTotals(res *study.Results) map[string]int {
	out := make(map[string]int)
	for _, rec := range res.Records {
		for _, f := range []core.Family{core.V4, core.V6} {
			for _, id := range publicdns.All {
				if rec.Responded.Has(id, f) {
					out[string(id)+"/"+string(f)]++
				}
			}
		}
	}
	return out
}

// TestShardedEngineDeterministic runs the study serially and at several
// worker counts and asserts every rendered table and figure — plus the
// raw availability totals — is byte-identical.
func TestShardedEngineDeterministic(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)

	serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
	wantRender := renderAll(serial)
	wantTotals := respondedTotals(serial)

	// The plain serial Run must agree with the workers=1 engine.
	direct := study.Run(study.BuildWorld(spec))
	if got := renderAll(direct); got != wantRender {
		t.Fatalf("workers=1 engine output differs from direct serial Run:\n%s\n---\n%s", got, wantRender)
	}

	for _, workers := range []int{2, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
			if len(res.Records) != len(serial.Records) {
				t.Fatalf("records = %d, want %d", len(res.Records), len(serial.Records))
			}
			for i, rec := range res.Records {
				if rec.Probe.ID != serial.Records[i].Probe.ID {
					t.Fatalf("record %d: probe %d, want %d (merge order broken)",
						i, rec.Probe.ID, serial.Records[i].Probe.ID)
				}
			}
			if got := renderAll(res); got != wantRender {
				t.Errorf("rendered artifacts differ at workers=%d:\n%s\n--- want ---\n%s", workers, got, wantRender)
			}
			totals := respondedTotals(res)
			if len(totals) != len(wantTotals) {
				t.Fatalf("responded experiments = %d, want %d", len(totals), len(wantTotals))
			}
			for k, n := range wantTotals {
				if totals[k] != n {
					t.Errorf("responded[%s] = %d, want %d", k, totals[k], n)
				}
			}
		})
	}
}

// TestShardedProgressAndRoster checks the per-shard progress callback
// fires once per shard and the shards partition the fleet exactly.
func TestShardedProgressAndRoster(t *testing.T) {
	spec := study.PaperSpec().Scale(0.02)
	const workers = 4
	perShard := make(map[int]int)
	res := study.RunSharded(spec, study.EngineOptions{
		Workers: workers,
		Progress: func(shard, total, probes int, _ time.Duration) {
			if total != workers {
				t.Errorf("progress total = %d, want %d", total, workers)
			}
			perShard[shard] += probes
		},
	})
	calls, sum := 0, 0
	for _, n := range perShard {
		calls++
		sum += n
	}
	if calls != workers {
		t.Errorf("progress calls = %d, want %d", calls, workers)
	}
	if sum != len(res.Records) {
		t.Errorf("shard probes sum = %d, want %d", sum, len(res.Records))
	}
	if len(res.Records) != spec.TotalProbes {
		t.Errorf("records = %d, want %d", len(res.Records), spec.TotalProbes)
	}
	seen := make(map[int]bool)
	for _, rec := range res.Records {
		if seen[rec.Probe.ID] {
			t.Fatalf("probe %d appears in two shards", rec.Probe.ID)
		}
		seen[rec.Probe.ID] = true
		// A record does not pin its probe's home: the home was released
		// when the record was yielded.
		if rec.Probe.Host != nil {
			t.Fatalf("probe %d: home still attached after the run", rec.Probe.ID)
		}
	}
}

// TestShardedVerdictsMatchSerial compares every per-probe verdict and
// intercepted set between the serial and the 8-way sharded run — a
// stronger property than the rendered artifacts alone.
func TestShardedVerdictsMatchSerial(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)
	serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
	sharded := study.RunSharded(spec, study.EngineOptions{Workers: 8})
	if len(serial.Records) != len(sharded.Records) {
		t.Fatalf("records: %d vs %d", len(serial.Records), len(sharded.Records))
	}
	for i := range serial.Records {
		a, b := serial.Records[i], sharded.Records[i]
		if (a.Report == nil) != (b.Report == nil) {
			t.Errorf("probe %d: responded mismatch", a.Probe.ID)
			continue
		}
		if a.Report == nil {
			continue
		}
		if a.Report.Verdict != b.Report.Verdict {
			t.Errorf("probe %d: verdict %s vs %s", a.Probe.ID, a.Report.Verdict, b.Report.Verdict)
		}
		if a.Report.CPEString != b.Report.CPEString {
			t.Errorf("probe %d: cpe string %q vs %q", a.Probe.ID, a.Report.CPEString, b.Report.CPEString)
		}
		if !sameIDs(a.Report.InterceptedV4, b.Report.InterceptedV4) ||
			!sameIDs(a.Report.InterceptedV6, b.Report.InterceptedV6) {
			t.Errorf("probe %d: intercepted sets differ", a.Probe.ID)
		}
		if a.Responded != b.Responded {
			t.Errorf("probe %d: responded %08b vs %08b", a.Probe.ID, a.Responded, b.Responded)
		}
	}
}

func sameIDs(a, b []publicdns.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
