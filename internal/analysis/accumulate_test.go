package analysis

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// renderAll renders every aggregate an accumulator feeds, as one string
// — the byte surface the fold-order and merge tests compare. The sweep
// rows cover the fused and adopted tallies and the evidence counters.
func renderAll(a *Accumulator) string {
	t4 := a.Table4()
	e := study.Encryption{Adoption: 0.5, Transport: core.TransportDoTOpportunistic, Policy: dnsserver.EncPass}
	return FormatTable4(t4) + CSVTable4(t4) +
		FormatTable5(a.Table5()) +
		FormatFigure3(a.Figure3(10)) +
		FormatFigure4(a.Figure4(10)) +
		FormatAccuracy(a.Accuracy()) +
		FormatResilience([]ResilienceRow{a.ResilienceRow(0.5)}) +
		FormatAdversary([]AdversaryRow{a.AdversaryRow(2)}) +
		FormatEncryption([]EncryptionRow{a.EncryptionRow(e)})
}

// hardenedRecords caches a small study with every sweep plane on: the
// harshest fault plane without retries, the forge rung with the cert
// and drift signals, and half the fleet on opportunistic DoT.
var hardenedRecords []*study.ProbeRecord

func hardened(t *testing.T) []*study.ProbeRecord {
	t.Helper()
	if hardenedRecords == nil {
		spec := study.PaperSpec().Scale(0.02)
		fp := netsim.PresetFault(1, spec.Seed+9000)
		spec.Fault = &fp
		spec.Adversary = 2
		spec.CertCheck = true
		spec.DriftRounds = 1
		spec.Encryption = &study.Encryption{Adoption: 0.5, Transport: core.TransportDoTOpportunistic, Policy: dnsserver.EncPass}
		res := study.RunSharded(spec, study.EngineOptions{Workers: 2})
		if len(res.Errors) != 0 {
			t.Fatalf("shard errors: %v", res.Errors)
		}
		// Plus one quarantined record, as a panicking measurement leaves.
		hardenedRecords = append(res.Records, &study.ProbeRecord{Probe: res.Records[0].Probe, Err: "injected panic"})
	}
	return hardenedRecords
}

// TestAccumulatorFoldOrderInvariance: folding the same records in
// reverse order renders byte-identical tables — the property that lets
// the streaming engine fold records as they complete.
func TestAccumulatorFoldOrderInvariance(t *testing.T) {
	recs := results(t).Records
	fwd, rev := NewAccumulator(), NewAccumulator()
	for _, rec := range recs {
		fwd.Fold(rec)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		rev.Fold(recs[i])
	}
	if renderAll(fwd) != renderAll(rev) {
		t.Errorf("fold order changed rendered output:\n--- forward ---\n%s--- reverse ---\n%s",
			renderAll(fwd), renderAll(rev))
	}
}

// TestAccumulatorMergeEqualsFullFold: records dealt round-robin across
// three accumulators and merged equal one accumulator fed everything —
// the property the shard merge relies on — for a plain run and for one
// that moves every sweep counter.
func TestAccumulatorMergeEqualsFullFold(t *testing.T) {
	for name, recs := range map[string][]*study.ProbeRecord{"plain": results(t).Records, "hardened": hardened(t)} {
		full := NewAccumulator()
		parts := []*Accumulator{NewAccumulator(), NewAccumulator(), NewAccumulator()}
		for i, rec := range recs {
			full.Fold(rec)
			parts[i%len(parts)].Fold(rec)
		}
		merged := NewAccumulator()
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Folded != len(recs) {
			t.Errorf("%s: merged.Folded = %d, want %d", name, merged.Folded, len(recs))
		}
		if renderAll(merged) != renderAll(full) {
			t.Errorf("%s: merged shards diverge from full fold:\n--- full ---\n%s--- merged ---\n%s",
				name, renderAll(full), renderAll(merged))
		}
		if name != "hardened" {
			continue
		}
		for counter, n := range map[string]int{
			"adopted": full.AdoptedScore.responded(), "fused TP": full.FusedScore.TruePositives,
			"timeouts": full.Timeouts, "garbage": full.Garbage, "inconclusive": full.Inconclusive,
			"cert": full.CertFlagged, "drift": full.Drifted, "quarantined": full.Quarantined,
		} {
			if n == 0 {
				t.Errorf("hardened run leaves the %s counter at zero; the merge check does not cover it", counter)
			}
		}
	}
}

// TestAccumulatorStateRoundtrip: checkpointing mid-fold and resuming in
// a fresh accumulator lands on the same rendered output as an
// uninterrupted fold.
func TestAccumulatorStateRoundtrip(t *testing.T) {
	recs := results(t).Records
	if len(recs) < 4 {
		t.Fatalf("need a few records, got %d", len(recs))
	}
	full := NewAccumulator()
	for _, rec := range recs {
		full.Fold(rec)
	}
	half := NewAccumulator()
	cut := len(recs) / 2
	for _, rec := range recs[:cut] {
		half.Fold(rec)
	}
	state, err := half.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewAccumulator()
	if err := resumed.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if resumed.Folded != cut {
		t.Errorf("restored Folded = %d, want %d", resumed.Folded, cut)
	}
	for _, rec := range recs[cut:] {
		resumed.Fold(rec)
	}
	if renderAll(resumed) != renderAll(full) {
		t.Errorf("checkpoint roundtrip diverges from uninterrupted fold:\n--- full ---\n%s--- resumed ---\n%s",
			renderAll(full), renderAll(resumed))
	}
}

// TestAccumulatorLoadStateRejectsGarbage: corrupt or mismatched state,
// or a state the renderers cannot draw, must error rather than fold
// into silently wrong tables, and the accumulator keeps its old state.
func TestAccumulatorLoadStateRejectsGarbage(t *testing.T) {
	const four = `"resolvers":[{},{},{},{}]`
	for name, state := range map[string]string{
		"malformed JSON":         "{not json",
		"wrong resolver count":   `{"resolvers":[{"int_v4":1}]}`,
		"null Figure 3 row":      `{` + four + `,"orgs":{"1":null}}`,
		"null Figure 4 row":      `{` + four + `,"folded":1,"countries":{"DE":null}}`,
		"parts overflow the int": `{` + four + `,"orgs":{"1":{"Transparent":9223372036854775807,"Modified":1}}}`,
		"parts past total":       `{` + four + `,"folded":5,"org_locs":{"x":{"CPE":2,"ISP":2,"Total":3}}}`,
		"negative count":         `{` + four + `,"folded":5,"loc_cpe":-1}`,
		"negative sweep count":   `{` + four + `,"timeouts":-1}`,
		"negative folded":        `{` + four + `,"folded":-1}`,
		"tally above folded":     `{"resolvers":[{"tot_v4":3},{},{},{}],"folded":2}`,
		"CPE groups past total":  `{` + four + `,"folded":5,"cpe_total":1,"cpe_groups":{"a":1,"b":1}}`,
		"localized past TP":      `{` + four + `,"folded":5,"score":{"TruePositives":1,"CorrectCPE":2}}`,
	} {
		a := NewAccumulator()
		a.Folded = 7
		if err := a.LoadState([]byte(state)); err == nil {
			t.Errorf("%s: LoadState accepted %s", name, state)
		} else if a.Folded != 7 {
			t.Errorf("%s: a rejected state replaced the accumulator's", name)
		}
	}
}

// TestAccumulatorLoadStateNullMaps: a state whose maps were written as
// null loads with every map non-nil, ready to fold into.
func TestAccumulatorLoadStateNullMaps(t *testing.T) {
	a := NewAccumulator()
	if err := a.LoadState([]byte(`{"resolvers":[{},{},{},{}],"cpe_groups":null,"orgs":null,"countries":null,"org_locs":null}`)); err != nil {
		t.Fatal(err)
	}
	if a.CPEGroups == nil || a.Orgs == nil || a.Countries == nil || a.OrgLocs == nil {
		t.Errorf("a loaded state has a nil map: %+v", a)
	}
}

// TestBuildersMatchAccumulator: the slice-based Build* entry points are
// wrappers over the accumulator; pin that they agree with an explicit
// fold so a future divergence in either path is caught.
func TestBuildersMatchAccumulator(t *testing.T) {
	r := results(t)
	a := NewAccumulator()
	for _, rec := range r.Records {
		a.Fold(rec)
	}
	if got, want := FormatTable4(BuildTable4(r)), FormatTable4(a.Table4()); got != want {
		t.Errorf("BuildTable4 != accumulator Table4:\n%s\nvs\n%s", got, want)
	}
	if got, want := FormatTable5(BuildTable5(r)), FormatTable5(a.Table5()); got != want {
		t.Errorf("BuildTable5 != accumulator Table5:\n%s\nvs\n%s", got, want)
	}
	if got, want := FormatFigure3(BuildFigure3(r, 10)), FormatFigure3(a.Figure3(10)); got != want {
		t.Errorf("BuildFigure3 != accumulator Figure3:\n%s\nvs\n%s", got, want)
	}
	if got, want := FormatFigure4(BuildFigure4(r, 10)), FormatFigure4(a.Figure4(10)); got != want {
		t.Errorf("BuildFigure4 != accumulator Figure4:\n%s\nvs\n%s", got, want)
	}
	if got, want := BuildAccuracy(r), a.Accuracy(); got != want {
		t.Errorf("BuildAccuracy = %+v, accumulator = %+v", got, want)
	}
}

// TestAccumulatorMergeRejectsForeignType guards the type assertion in
// Merge.
func TestAccumulatorMergeRejectsForeignType(t *testing.T) {
	if err := NewAccumulator().Merge(foreignAcc{}); err == nil {
		t.Error("Merge accepted a foreign accumulator type")
	}
}

type foreignAcc struct{}

func (foreignAcc) Fold(*study.ProbeRecord)       {}
func (foreignAcc) Merge(study.Accumulator) error { return nil }
func (foreignAcc) MarshalState() ([]byte, error) { return nil, nil }
func (foreignAcc) LoadState([]byte) error        { return nil }
