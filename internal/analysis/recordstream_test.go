package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// patternsOf folds records' exports into a pattern histogram.
func patternsOf(recs []*study.ProbeRecord, family core.Family) *PatternBreakdown {
	b := NewPatternBreakdown(family)
	for _, rec := range recs {
		var e study.ProbeExport
		study.ExportRecordInto(rec, &e)
		b.Add(&e)
	}
	return b
}

// populationOf folds records' exports into per-country rows.
func populationOf(recs []*study.ProbeRecord) Population {
	p := Population{}
	for _, rec := range recs {
		var e study.ProbeExport
		study.ExportRecordInto(rec, &e)
		p.Add(&e)
	}
	return p
}

// patternOracle is the pattern histogram computed from retained
// records, as pilotstudy did before it read the record stream.
func patternOracle(r *study.Results, family core.Family) PatternBreakdown {
	b := PatternBreakdown{
		Family:         family,
		OnlyOne:        make(map[publicdns.ID]int),
		OnlyOneAllowed: make(map[publicdns.ID]int),
	}
	for _, rec := range r.Records {
		if rec.Report == nil {
			continue
		}
		set := rec.Report.InterceptedV4
		if family == core.V6 {
			set = rec.Report.InterceptedV6
		}
		if len(set) == 0 {
			continue
		}
		b.Total++
		switch len(set) {
		case len(publicdns.All):
			b.AllFour++
		case 1:
			b.OnlyOne[set[0]]++
		case len(publicdns.All) - 1:
			present := map[publicdns.ID]bool{}
			for _, id := range set {
				present[id] = true
			}
			for _, id := range publicdns.All {
				if !present[id] {
					b.OnlyOneAllowed[id]++
				}
			}
		case 2:
			b.Pairs++
		}
	}
	return b
}

// populationOracle is the per-country table computed from retained
// records.
func populationOracle(r *study.Results) []PopulationRow {
	byCountry := map[string]*PopulationRow{}
	for _, rec := range r.Records {
		row := byCountry[rec.Probe.Country]
		if row == nil {
			row = &PopulationRow{Country: rec.Probe.Country}
			byCountry[rec.Probe.Country] = row
		}
		row.Probes++
		if rec.Report != nil {
			row.Responding++
			if rec.Report.Intercepted() {
				row.Intercepted++
			}
		}
	}
	rows := make([]PopulationRow, 0, len(byCountry))
	for _, row := range byCountry {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Probes != rows[j].Probes {
			return rows[i].Probes > rows[j].Probes
		}
		return rows[i].Country < rows[j].Country
	})
	return rows
}

// TestRecordStreamMatchesOracles: -ext patterns and -ext population
// folded from a streamed run's record files, read back in probe-ID
// order, equal the record-based oracles at 1, 2 and 4 workers, on a
// clean spec and under the forging adversary.
func TestRecordStreamMatchesOracles(t *testing.T) {
	clean := study.PaperSpec().Scale(0.05)
	adv := clean
	adv.Adversary = 2
	for name, spec := range map[string]study.Spec{"clean": clean, "adversary-L2": adv} {
		oracle := study.RunSharded(spec, study.EngineOptions{Workers: 3})
		if len(oracle.Errors) != 0 {
			t.Fatalf("%s: shard errors: %v", name, oracle.Errors)
		}
		want4, want6 := patternOracle(oracle, core.V4), patternOracle(oracle, core.V6)
		wantPop := populationOracle(oracle)
		if want4.Total == 0 {
			t.Fatalf("%s: no intercepted probes", name)
		}
		for _, workers := range []int{1, 2, 4} {
			v4, v6 := NewPatternBreakdown(core.V4), NewPatternBreakdown(core.V6)
			pop := Population{}
			err := study.WalkRecords(streamRecordFiles(t, spec, workers), func(_ []byte, e *study.ProbeExport) error {
				v4.Add(e)
				v6.Add(e)
				pop.Add(e)
				return nil
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(*v4, want4) || !reflect.DeepEqual(*v6, want6) {
				t.Errorf("%s workers=%d: patterns\n%s%s\nwant\n%s%s", name, workers,
					FormatPatternBreakdown(*v4), FormatPatternBreakdown(*v6),
					FormatPatternBreakdown(want4), FormatPatternBreakdown(want6))
			}
			if got := pop.Rows(); !reflect.DeepEqual(got, wantPop) {
				t.Errorf("%s workers=%d: population\n%s\nwant\n%s", name, workers,
					FormatPopulation(got), FormatPopulation(wantPop))
			}
		}
	}
}

// streamRecordFiles runs spec streamed over workers shards with a JSONL
// record sink per shard and returns the files in shard order.
func streamRecordFiles(t *testing.T, spec study.Spec, workers int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, workers)
	for k := range paths {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", k))
	}
	res, err := study.RunStreamed(spec, study.StreamOptions{
		Workers:        workers,
		NewAccumulator: func(int) study.Accumulator { return NewAccumulator() },
		NewSink: func(k, _, _ int) (study.RecordSink, error) {
			f, err := os.Create(paths[k])
			if err != nil {
				return nil, err
			}
			return study.NewJSONLSink(f), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("workers=%d: shard errors: %v", workers, res.Errors)
	}
	return paths
}
