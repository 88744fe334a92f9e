package study_test

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// faultedSpec is a small study measured through a badly impaired path.
func faultedSpec() study.Spec {
	spec := study.PaperSpec().Scale(0.02)
	fp := netsim.PresetFault(0.6, spec.Seed+9000)
	spec.Fault = &fp
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	return spec
}

// quarantined returns the records whose measurements panicked and were
// contained.
func quarantined(res *study.Results) []*study.ProbeRecord {
	var out []*study.ProbeRecord
	for _, rec := range res.Records {
		if rec.Err != "" {
			out = append(out, rec)
		}
	}
	return out
}

// exportJSON marshals the per-probe export records one per line.
func exportJSON(t *testing.T, res *study.Results) []string {
	t.Helper()
	var out []string
	for _, rec := range res.Records {
		blob, err := json.Marshal(study.ExportRecord(rec))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(blob))
	}
	return out
}

// TestFaultedShardedDeterministic is the tentpole contract under
// stress: with a nonzero fault profile installed, the run completes
// with zero aborted probes and its exported records are byte-identical
// at any worker count.
func TestFaultedShardedDeterministic(t *testing.T) {
	spec := faultedSpec()
	serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
	want := exportJSON(t, serial)

	if n := len(quarantined(serial)); n != 0 {
		t.Fatalf("%d probes quarantined under faults, want 0", n)
	}
	if len(serial.Errors) != 0 {
		t.Fatalf("shard errors: %v", serial.Errors)
	}

	degraded := 0
	for _, rec := range serial.Records {
		if rec.Report != nil && len(rec.Report.Faults) > 0 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no probe recorded fault evidence; the profile did nothing")
	}

	// Faults must only ever degrade detection, never fabricate it.
	if a := fold(serial).Accuracy(); a.FalsePositives != 0 {
		t.Errorf("false positives under faults = %d, want 0", a.FalsePositives)
	}

	for _, workers := range []int{3, 4} {
		res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
		got := exportJSON(t, res)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d differs:\n%s\n%s", workers, i, got[i], want[i])
			}
		}
	}
}

// panicClient blows up on first use.
type panicClient struct{}

func (panicClient) Exchange(netip.AddrPort, *dnswire.Message) ([]*dnswire.Message, error) {
	panic("injected transport failure")
}

// TestQuarantineIsolatesPanickingProbe injects a client that panics for
// exactly one probe and asserts the run completes, the probe is
// quarantined with its error recorded, and every other probe's exported
// record is byte-identical to the clean baseline.
func TestQuarantineIsolatesPanickingProbe(t *testing.T) {
	spec := study.PaperSpec().Scale(0.02)
	const workers = 3
	baseline := study.RunSharded(spec, study.EngineOptions{Workers: workers})
	want := exportJSON(t, baseline)

	panicID := -1
	for _, rec := range baseline.Records {
		if rec.Report != nil {
			panicID = rec.Probe.ID
			break
		}
	}
	if panicID < 0 {
		t.Fatal("baseline has no responding probe")
	}

	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		if p.ID == panicID {
			return panicClient{}
		}
		return c
	}
	res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
	if len(res.Records) != len(baseline.Records) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(baseline.Records))
	}

	q := quarantined(res)
	if len(q) != 1 || q[0].Probe.ID != panicID {
		t.Fatalf("quarantined = %v, want exactly probe %d", q, panicID)
	}
	if q[0].Report != nil || q[0].Err == "" {
		t.Errorf("quarantined record: report=%v err=%q", q[0].Report, q[0].Err)
	}

	got := exportJSON(t, res)
	for i, rec := range res.Records {
		if rec.Probe.ID == panicID {
			continue
		}
		if got[i] != want[i] {
			t.Errorf("probe %d perturbed by the quarantine:\n%s\n%s", rec.Probe.ID, got[i], want[i])
		}
	}
}

// TestResilienceSweep runs the -faults experiment end to end at small
// scale: accuracy reported across 4 fault levels, timeouts never
// classified as interception (zero false positives at every level).
func TestResilienceSweep(t *testing.T) {
	spec := study.PaperSpec().Scale(0.02)
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	levels := []float64{0, 0.33, 0.66, 1.0}
	cells := make([]study.Spec, len(levels))
	for i, lvl := range levels {
		cells[i] = spec
		if lvl > 0 {
			fp := netsim.PresetFault(lvl, spec.Seed+9000)
			cells[i].Fault = &fp
		}
	}
	accs, err := analysis.Sweep(cells, study.StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]analysis.ResilienceRow, len(levels))
	for i, acc := range accs {
		rows[i] = acc.ResilienceRow(levels[i])
	}
	for _, row := range rows {
		if row.Responded == 0 {
			t.Errorf("level %v: nobody responded", row.Level)
		}
		if row.FP != 0 {
			t.Errorf("level %v: %d false positives — fault-shaped outcomes read as interception", row.Level, row.FP)
		}
		if row.Quarantined != 0 {
			t.Errorf("level %v: %d probes quarantined", row.Level, row.Quarantined)
		}
	}
	if rows[0].Accuracy() != 1.0 {
		t.Errorf("clean baseline accuracy = %.3f, want 1.0", rows[0].Accuracy())
	}
	if last := rows[len(rows)-1]; last.Timeouts+last.Garbage == 0 {
		t.Error("top fault level recorded no fault-shaped outcomes")
	}
	table := analysis.FormatResilience(rows)
	for _, lvl := range levels {
		if want := fmt.Sprintf("%.2f", lvl); !strings.Contains(table, want) {
			t.Errorf("rendered table missing level %s:\n%s", want, table)
		}
	}
}
