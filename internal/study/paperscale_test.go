package study_test

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestPaperScaleReproduction runs the full ~10,000-probe pilot study and
// checks the headline numbers of the paper's Tables 4-5 and Figure 4.
// Per-resolver interception counts and the v6 columns are asserted
// exactly — the world generator is calibrated and deterministic — while
// per-experiment totals get a tolerance because they depend on the
// availability sampling.
func TestPaperScaleReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study skipped in -short mode")
	}
	w := study.BuildWorld(study.PaperSpec())
	res := study.Run(w)

	t4 := fold(res).Table4()
	wantV4 := map[publicdns.ID]int{
		publicdns.Cloudflare: 165,
		publicdns.Google:     160,
		publicdns.Quad9:      156,
		publicdns.OpenDNS:    156,
	}
	wantV6 := map[publicdns.ID]int{
		publicdns.Cloudflare: 11,
		publicdns.Google:     15,
		publicdns.Quad9:      11,
		publicdns.OpenDNS:    11,
	}
	for _, row := range t4.Rows {
		if row.InterceptedV4 != wantV4[row.Resolver] {
			t.Errorf("%s intercepted v4 = %d, want %d (paper)", row.Resolver, row.InterceptedV4, wantV4[row.Resolver])
		}
		if row.InterceptedV6 != wantV6[row.Resolver] {
			t.Errorf("%s intercepted v6 = %d, want %d (paper)", row.Resolver, row.InterceptedV6, wantV6[row.Resolver])
		}
		// Paper totals are 9616-9666 (v4) and 3726-3732 (v6); allow the
		// availability model some slack.
		if row.TotalV4 < 9450 || row.TotalV4 > 9800 {
			t.Errorf("%s total v4 = %d, outside plausible band", row.Resolver, row.TotalV4)
		}
		if row.TotalV6 < 3550 || row.TotalV6 > 3950 {
			t.Errorf("%s total v6 = %d, outside plausible band", row.Resolver, row.TotalV6)
		}
	}
	if t4.AllInterceptedV4 != 108 {
		t.Errorf("all-four v4 = %d, want 108 (paper)", t4.AllInterceptedV4)
	}
	if t4.AllInterceptedV6 != 0 {
		t.Errorf("all-four v6 = %d, want 0 (paper)", t4.AllInterceptedV6)
	}
	if t4.DistinctIntercepted != 220 {
		t.Errorf("distinct intercepted = %d, want 220 (paper)", t4.DistinctIntercepted)
	}

	// Table 5: 49 CPE interceptors with the paper's string groups.
	t5 := fold(res).Table5()
	if t5.CPETotal != 49 {
		t.Errorf("CPE interceptors = %d, want 49 (paper)", t5.CPETotal)
	}
	groups := map[string]int{}
	for _, row := range t5.Rows {
		groups[row.Group] = row.Probes
	}
	wantGroups := map[string]int{
		"dnsmasq-*":         23,
		"dnsmasq-pi-hole-*": 8,
		"unbound*":          6,
		"*-RedHat":          2,
	}
	for g, n := range wantGroups {
		if groups[g] != n {
			t.Errorf("table5 group %q = %d, want %d (paper)", g, groups[g], n)
		}
	}
	singles := 0
	for g, n := range groups {
		if wantGroups[g] == 0 {
			if n != 1 {
				t.Errorf("group %q = %d, want 1 (paper's singletons)", g, n)
			}
			singles++
		}
	}
	if singles != 10 {
		t.Errorf("singleton groups = %d, want 10 (paper)", singles)
	}

	// Figure 3: Comcast has the most intercepted probes.
	f3 := fold(res).Figure3(15)
	if len(f3.Rows) != 15 {
		t.Fatalf("figure3 rows = %d", len(f3.Rows))
	}
	if f3.Rows[0].ASN != 7922 {
		t.Errorf("top org = %s (AS%d), want Comcast AS7922 (paper)", f3.Rows[0].Org, f3.Rows[0].ASN)
	}
	// The majority of intercepted probes resolve correctly (transparent).
	totT, totAll := 0, 0
	for _, row := range f3.Rows {
		totT += row.Transparent
		totAll += row.Total
	}
	if totT*2 <= totAll {
		t.Errorf("transparent %d of %d — paper: the majority are transparent", totT, totAll)
	}

	// Figure 4: CPE share 49/220; in-ISP is the most common location.
	f4 := fold(res).Figure4(15)
	if f4.CPE != 49 {
		t.Errorf("figure4 CPE = %d, want 49 (paper)", f4.CPE)
	}
	if f4.ISP <= f4.CPE || f4.ISP <= f4.Unknown {
		t.Errorf("figure4 ISP=%d CPE=%d Unknown=%d — ISP should dominate (paper)", f4.ISP, f4.CPE, f4.Unknown)
	}

	// Ground-truth scoring: the technique makes no detection errors in
	// this world, and every mislocalization is a deliberate limitation
	// (interceptors that drop bogons are unlocatable by design).
	acc := fold(res).Accuracy()
	if acc.FalsePositives != 0 || acc.FalseNegatives != 0 {
		t.Errorf("detection errors: fp=%d fn=%d", acc.FalsePositives, acc.FalseNegatives)
	}
	if acc.Mislocated != 0 {
		t.Errorf("mislocated = %d, want 0", acc.Mislocated)
	}
	if acc.CorrectCPE != 49 || acc.HiddenAsUnknown != 29 || acc.CorrectUnknown != 21 {
		t.Errorf("localization breakdown = %+v", acc)
	}

	// §4.1.1 pattern families: the all-four pattern dominates; among
	// single-resolver patterns Cloudflare and Google lead.
	pat, pat6 := analysis.NewPatternBreakdown(core.V4), analysis.NewPatternBreakdown(core.V6)
	targets := study.TTLTargets{CleanSample: 25}
	for _, rec := range res.Records {
		e := study.ExportRecord(rec)
		pat.Add(&e)
		pat6.Add(&e)
		targets.Add(&e)
	}
	if pat.AllFour != 108 {
		t.Errorf("all-four pattern = %d, want 108", pat.AllFour)
	}
	if pat.OnlyOne[publicdns.Cloudflare] <= pat.OnlyOne[publicdns.Quad9] ||
		pat.OnlyOne[publicdns.Google] <= pat.OnlyOne[publicdns.OpenDNS] {
		t.Errorf("single-resolver pattern skew missing: %+v", pat.OnlyOne)
	}
	if pat6.AllFour != 0 {
		t.Errorf("v6 all-four = %d, want 0", pat6.AllFour)
	}

	// §6 TTL extension: hop distances order the interceptor classes.
	ttl := study.RunTTLExtension(w.Spec, targets.Targets, 10)
	cpeMed := ttl.Median(core.VerdictCPE)
	ispMed := ttl.Median(core.VerdictISP)
	cleanMed := ttl.Median(core.VerdictNotIntercepted)
	if !(cpeMed < ispMed && ispMed < cleanMed) {
		t.Errorf("TTL medians: cpe=%d isp=%d clean=%d, want strictly increasing", cpeMed, ispMed, cleanMed)
	}
	// The ladder partially de-aliases "unknown": in-AS bogon-droppers
	// answer closer than the path's end.
	if min, _ := ttl.Range(core.VerdictUnknown); min >= cleanMed {
		t.Errorf("unknown-class min TTL %d should betray in-AS interceptors (clean median %d)", min, cleanMed)
	}
}
