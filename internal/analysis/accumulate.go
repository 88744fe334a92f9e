package analysis

import (
	"encoding/json"
	"fmt"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// Accumulator is the streaming form of every aggregate this package
// builds: it folds one ProbeRecord at a time into bounded state —
// per-resolver counters (Table 4), version.bind group counts (Table 5),
// per-organization transparency tallies (Figure 3), per-country and
// per-organization location tallies (Figure 4), and the ground-truth
// confusion matrix — so a million-probe run never has to retain its
// records. Every aggregate is a pure count keyed by record-intrinsic
// fields, so folding is commutative: any fold order, and any shard
// merge order, produces the same tables as the slice-based builders
// (which are now thin wrappers over a throwaway Accumulator).
//
// The state is plain exported data serialized by encoding/json — that
// is what the study engine checkpoints to disk between probes and what
// a resumed shard loads back before folding its remaining records.
type Accumulator struct {
	// Table 4 state, indexed in publicdns.All order.
	Resolvers []ResolverTally `json:"resolvers"`
	All4      All4Tally       `json:"all4"`
	Distinct  int             `json:"distinct_intercepted"`

	// Table 5 state.
	CPEGroups map[string]int `json:"cpe_groups"`
	CPETotal  int            `json:"cpe_total"`

	// Figure 3 state: ASN → transparency tallies.
	Orgs map[int]*Figure3Row `json:"orgs"`

	// Figure 4 state.
	Countries map[string]*Figure4Row `json:"countries"`
	OrgLocs   map[string]*Figure4Row `json:"org_locs"`
	LocCPE    int                    `json:"loc_cpe"`
	LocISP    int                    `json:"loc_isp"`
	LocOther  int                    `json:"loc_other"`

	// Confusion matrix state.
	Score Accuracy `json:"score"`

	// FusedScore is the confusion matrix of the three-signal fusion
	// (Report.FusedIntercepted) against the same ground truth. On runs
	// without the cert/drift signals it equals Score's detection counts.
	// Absent from old checkpoints, which unmarshal it as zero — Merge
	// still adds correctly because zero is the empty tally.
	FusedScore Accuracy `json:"fused_score"`

	// Sweep-row state (see Sweep). AdoptedScore is Score's confusion
	// restricted to probes running an encrypted transport; Quarantined
	// counts records whose measurement panicked; the rest count
	// responding reports: fault-shaped final outcomes summed over their
	// StepFault entries, reports with at least one inconclusive step,
	// with a certificate-consistency mismatch, and with answer drift.
	AdoptedScore Accuracy `json:"adopted_score"`
	Quarantined  int      `json:"quarantined"`
	Timeouts     int      `json:"timeouts"`
	Garbage      int      `json:"garbage"`
	Inconclusive int      `json:"inconclusive"`
	CertFlagged  int      `json:"cert_flagged"`
	Drifted      int      `json:"drifted"`

	// Folded counts the records folded in (quarantined and unresponsive
	// ones included) — the streaming engine's progress cursor.
	Folded int `json:"folded"`
}

// ResolverTally is one resolver's Table 4 counters.
type ResolverTally struct {
	InterceptedV4 int `json:"int_v4"`
	TotalV4       int `json:"tot_v4"`
	InterceptedV6 int `json:"int_v6"`
	TotalV6       int `json:"tot_v6"`
}

// All4Tally is the "All Intercepted" line's counters.
type All4Tally struct {
	InterceptedV4 int `json:"int_v4"`
	TotalV4       int `json:"tot_v4"`
	InterceptedV6 int `json:"int_v6"`
	TotalV6       int `json:"tot_v6"`
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		Resolvers: make([]ResolverTally, len(publicdns.All)),
		CPEGroups: make(map[string]int),
		Orgs:      make(map[int]*Figure3Row),
		Countries: make(map[string]*Figure4Row),
		OrgLocs:   make(map[string]*Figure4Row),
	}
}

// Fold adds one record's contribution to every aggregate. The record is
// not retained; callers may release or reuse it afterwards.
func (a *Accumulator) Fold(rec *study.ProbeRecord) {
	a.Folded++
	if rec.Err != "" {
		a.Quarantined++
	}
	a.foldTable4(rec)
	if rec.Report == nil {
		return
	}
	a.foldScore(rec)
	a.foldEvidence(rec.Report)
	if !rec.Report.Intercepted() {
		return
	}
	a.Distinct++
	a.foldTable5(rec)
	a.foldFigure3(rec)
	a.foldFigure4(rec)
}

func (a *Accumulator) foldTable4(rec *study.ProbeRecord) {
	for i, id := range publicdns.All {
		if rec.Responded.Has(id, core.V4) {
			a.Resolvers[i].TotalV4++
			if rec.InterceptedFor(id, core.V4) {
				a.Resolvers[i].InterceptedV4++
			}
		}
		if rec.Responded.Has(id, core.V6) {
			a.Resolvers[i].TotalV6++
			if rec.InterceptedFor(id, core.V6) {
				a.Resolvers[i].InterceptedV6++
			}
		}
	}
	for _, f := range []core.Family{core.V4, core.V6} {
		if !rec.RespondedAll4(f) {
			continue
		}
		all := true
		for _, id := range publicdns.All {
			if !rec.InterceptedFor(id, f) {
				all = false
				break
			}
		}
		if f == core.V4 {
			a.All4.TotalV4++
			if all {
				a.All4.InterceptedV4++
			}
		} else {
			a.All4.TotalV6++
			if all {
				a.All4.InterceptedV6++
			}
		}
	}
}

func (a *Accumulator) foldTable5(rec *study.ProbeRecord) {
	if rec.Report.Verdict != core.VerdictCPE {
		return
	}
	a.CPETotal++
	a.CPEGroups[GroupVersionString(rec.Report.CPEString)]++
}

func (a *Accumulator) foldFigure3(rec *study.ProbeRecord) {
	row := a.Orgs[rec.Probe.ASN]
	if row == nil {
		row = &Figure3Row{Org: rec.Probe.Org, ASN: rec.Probe.ASN}
		a.Orgs[rec.Probe.ASN] = row
	}
	row.Total++
	switch rec.Report.Transparency {
	case core.Transparent:
		row.Transparent++
	case core.StatusModified:
		row.Modified++
	case core.TransparencyBoth:
		row.Both++
	}
}

func (a *Accumulator) foldFigure4(rec *study.ProbeRecord) {
	v := rec.Report.Verdict
	add := func(m map[string]*Figure4Row, label string) {
		row := m[label]
		if row == nil {
			row = &Figure4Row{Label: label}
			m[label] = row
		}
		row.Total++
		switch v {
		case core.VerdictCPE:
			row.CPE++
		case core.VerdictISP:
			row.ISP++
		default:
			row.Unknown++
		}
	}
	add(a.Countries, rec.Probe.Country)
	add(a.OrgLocs, rec.Probe.Org)
	switch v {
	case core.VerdictCPE:
		a.LocCPE++
	case core.VerdictISP:
		a.LocISP++
	default:
		a.LocOther++
	}
}

// foldScore scores one report against ground truth three ways: the
// CHAOS verdict (with its localization split), the signal fusion's
// detection verdict, and the CHAOS verdict again for the encrypted
// cohort. The cert and drift signals detect, they do not localize, so
// only Score carries the localization split.
func (a *Accumulator) foldScore(rec *study.ProbeRecord) {
	truly := rec.Probe.Truth.Intercepted()
	flagged := rec.Report.Intercepted()
	s := &a.Score
	s.tally(truly, flagged)
	a.FusedScore.tally(truly, rec.Report.FusedIntercepted())
	if rec.Probe.EncTransport.Encrypted() {
		a.AdoptedScore.tally(truly, flagged)
	}
	if !(truly && flagged) {
		return
	}
	switch loc, v := rec.Probe.Truth.Location, rec.Report.Verdict; {
	case loc == "cpe" && v == core.VerdictCPE:
		s.CorrectCPE++
	case loc == "isp" && v == core.VerdictISP:
		s.CorrectISP++
	case loc == "transit" && v == core.VerdictUnknown:
		s.CorrectUnknown++
	case loc == "isp-hidden" && v == core.VerdictUnknown:
		s.HiddenAsUnknown++
	default:
		s.Mislocated++
	}
}

// foldEvidence counts the report's fault-shaped outcomes, inconclusive
// steps, and cert and drift flags.
func (a *Accumulator) foldEvidence(r *core.Report) {
	inconclusive := false
	for _, f := range r.Faults {
		a.Timeouts += f.Timeouts
		a.Garbage += f.Garbage
		inconclusive = inconclusive || f.Inconclusive
	}
	if inconclusive {
		a.Inconclusive++
	}
	for _, c := range r.CertChecks {
		if c.State == core.SignalFlagged {
			a.CertFlagged++
			break
		}
	}
	for _, s := range r.Signals {
		if s.Drift == core.SignalFlagged {
			a.Drifted++
			break
		}
	}
}

// tally counts one scored report in the detection confusion matrix.
func (s *Accuracy) tally(truly, flagged bool) {
	switch {
	case truly && flagged:
		s.TruePositives++
	case truly && !flagged:
		s.FalseNegatives++
	case !truly && flagged:
		s.FalsePositives++
	default:
		s.TrueNegatives++
	}
}

// add adds another tally's counts.
func (s *Accuracy) add(o Accuracy) {
	s.TruePositives += o.TruePositives
	s.FalsePositives += o.FalsePositives
	s.TrueNegatives += o.TrueNegatives
	s.FalseNegatives += o.FalseNegatives
	s.CorrectCPE += o.CorrectCPE
	s.CorrectISP += o.CorrectISP
	s.CorrectUnknown += o.CorrectUnknown
	s.Mislocated += o.Mislocated
	s.HiddenAsUnknown += o.HiddenAsUnknown
}

// responded counts the scored reports.
func (s Accuracy) responded() int {
	return s.TruePositives + s.FalsePositives + s.FalseNegatives + s.TrueNegatives
}

// localized counts true positives whose verdict matched ground truth,
// hidden-as-unknown included (the right answer for a bogon-dropper).
func (s Accuracy) localized() int {
	return s.CorrectCPE + s.CorrectISP + s.CorrectUnknown + s.HiddenAsUnknown
}

// Merge folds another accumulator's state into this one. Every field is
// an additive count, so merging is commutative and associative — shard
// accumulators merged in any order equal one accumulator fed every
// record. Implements study.Accumulator.
func (a *Accumulator) Merge(other study.Accumulator) error {
	o, ok := other.(*Accumulator)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *Accumulator", other)
	}
	a.mergeFrom(o)
	return nil
}

func (a *Accumulator) mergeFrom(o *Accumulator) {
	for i := range a.Resolvers {
		if i >= len(o.Resolvers) {
			break
		}
		a.Resolvers[i].InterceptedV4 += o.Resolvers[i].InterceptedV4
		a.Resolvers[i].TotalV4 += o.Resolvers[i].TotalV4
		a.Resolvers[i].InterceptedV6 += o.Resolvers[i].InterceptedV6
		a.Resolvers[i].TotalV6 += o.Resolvers[i].TotalV6
	}
	a.All4.InterceptedV4 += o.All4.InterceptedV4
	a.All4.TotalV4 += o.All4.TotalV4
	a.All4.InterceptedV6 += o.All4.InterceptedV6
	a.All4.TotalV6 += o.All4.TotalV6
	a.Distinct += o.Distinct
	a.CPETotal += o.CPETotal
	for g, n := range o.CPEGroups {
		a.CPEGroups[g] += n
	}
	for asn, row := range o.Orgs {
		dst := a.Orgs[asn]
		if dst == nil {
			dst = &Figure3Row{Org: row.Org, ASN: row.ASN}
			a.Orgs[asn] = dst
		}
		dst.Transparent += row.Transparent
		dst.Modified += row.Modified
		dst.Both += row.Both
		dst.Total += row.Total
	}
	mergeF4 := func(dst, src map[string]*Figure4Row) {
		for label, row := range src {
			d := dst[label]
			if d == nil {
				d = &Figure4Row{Label: label}
				dst[label] = d
			}
			d.CPE += row.CPE
			d.ISP += row.ISP
			d.Unknown += row.Unknown
			d.Total += row.Total
		}
	}
	mergeF4(a.Countries, o.Countries)
	mergeF4(a.OrgLocs, o.OrgLocs)
	a.LocCPE += o.LocCPE
	a.LocISP += o.LocISP
	a.LocOther += o.LocOther

	a.Score.add(o.Score)
	a.FusedScore.add(o.FusedScore)
	a.AdoptedScore.add(o.AdoptedScore)
	a.Quarantined += o.Quarantined
	a.Timeouts += o.Timeouts
	a.Garbage += o.Garbage
	a.Inconclusive += o.Inconclusive
	a.CertFlagged += o.CertFlagged
	a.Drifted += o.Drifted

	a.Folded += o.Folded
}

// MarshalState serializes the accumulator for a shard checkpoint.
// Implements study.Accumulator.
func (a *Accumulator) MarshalState() ([]byte, error) {
	return json.Marshal(a)
}

// LoadState replaces the accumulator's state with a checkpointed one.
// Implements study.Accumulator.
func (a *Accumulator) LoadState(data []byte) error {
	fresh := NewAccumulator()
	if err := json.Unmarshal(data, fresh); err != nil {
		return fmt.Errorf("analysis: loading accumulator state: %w", err)
	}
	// A checkpoint written before any fold may have nil maps; keep the
	// invariant that every map is non-nil.
	if fresh.CPEGroups == nil {
		fresh.CPEGroups = make(map[string]int)
	}
	if fresh.Orgs == nil {
		fresh.Orgs = make(map[int]*Figure3Row)
	}
	if fresh.Countries == nil {
		fresh.Countries = make(map[string]*Figure4Row)
	}
	if fresh.OrgLocs == nil {
		fresh.OrgLocs = make(map[string]*Figure4Row)
	}
	if len(fresh.Resolvers) != len(publicdns.All) {
		return fmt.Errorf("analysis: checkpoint has %d resolver tallies, want %d",
			len(fresh.Resolvers), len(publicdns.All))
	}
	*a = *fresh
	return nil
}

// Table4 renders the accumulated Table 4.
func (a *Accumulator) Table4() Table4 {
	var t Table4
	for i, id := range publicdns.All {
		t.Rows = append(t.Rows, Table4Row{
			Resolver:      id,
			Display:       publicdns.Lookup(id).DisplayName,
			InterceptedV4: a.Resolvers[i].InterceptedV4,
			TotalV4:       a.Resolvers[i].TotalV4,
			InterceptedV6: a.Resolvers[i].InterceptedV6,
			TotalV6:       a.Resolvers[i].TotalV6,
		})
	}
	t.AllInterceptedV4 = a.All4.InterceptedV4
	t.AllTotalV4 = a.All4.TotalV4
	t.AllInterceptedV6 = a.All4.InterceptedV6
	t.AllTotalV6 = a.All4.TotalV6
	t.DistinctIntercepted = a.Distinct
	return t
}

// Table5 renders the accumulated Table 5.
func (a *Accumulator) Table5() Table5 {
	var t Table5
	t.CPETotal = a.CPETotal
	for g, n := range a.CPEGroups {
		t.Rows = append(t.Rows, Table5Row{Group: g, Probes: n})
	}
	sortTable5(t.Rows)
	return t
}

// Figure3 renders the accumulated Figure 3 (top n organizations).
func (a *Accumulator) Figure3(n int) Figure3 {
	var rows []Figure3Row
	for _, row := range a.Orgs {
		rows = append(rows, *row)
	}
	sortFigure3(rows)
	if len(rows) > n {
		rows = rows[:n]
	}
	return Figure3{Rows: rows}
}

// Figure4 renders the accumulated Figure 4 (top n of each breakdown).
func (a *Accumulator) Figure4(n int) Figure4 {
	return Figure4{
		Countries: topRows(a.Countries, n),
		Orgs:      topRows(a.OrgLocs, n),
		CPE:       a.LocCPE,
		ISP:       a.LocISP,
		Unknown:   a.LocOther,
	}
}

// Accuracy returns the accumulated confusion matrix.
func (a *Accumulator) Accuracy() Accuracy {
	return a.Score
}

// FusedAccuracy returns the three-signal fusion's confusion matrix
// (detection counts only; see foldScore).
func (a *Accumulator) FusedAccuracy() Accuracy {
	return a.FusedScore
}
