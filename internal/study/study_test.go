package study_test

import (
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

func TestSpecQuotasMatchPaper(t *testing.T) {
	spec := study.PaperSpec()
	if got := spec.TotalSeats(); got != 220 {
		t.Errorf("total seats = %d, want 220", got)
	}
	// All-four v4 seats = 108 (Table 4's "All Intercepted" row).
	all4, cpeSeats := 0, 0
	perResolver := map[publicdns.ID]int{}
	for _, g := range spec.Seats {
		if g.V4None {
			continue
		}
		ids := g.Pattern
		if ids == nil {
			all4 += g.Count
			ids = study.Pattern(publicdns.All)
		}
		for _, id := range ids {
			perResolver[id] += g.Count
		}
		if g.Loc == isp.LocCPE {
			cpeSeats += g.Count
		}
	}
	if all4 != 108 {
		t.Errorf("all-four seats = %d, want 108", all4)
	}
	if cpeSeats != 49 {
		t.Errorf("CPE seats = %d, want 49", cpeSeats)
	}
	want := map[publicdns.ID]int{
		publicdns.Cloudflare: 165,
		publicdns.Google:     160,
		publicdns.Quad9:      156,
		publicdns.OpenDNS:    156,
	}
	for id, n := range want {
		if perResolver[id] != n {
			t.Errorf("%s v4 seats = %d, want %d", id, perResolver[id], n)
		}
	}
	if len(spec.CPEPersonas) != 49 {
		t.Errorf("CPE personas = %d, want 49", len(spec.CPEPersonas))
	}
	// v6 membership: Table 4's v6 column (11/15/11/11).
	v6 := map[publicdns.ID]int{}
	for _, g := range spec.Seats {
		for _, id := range g.V6 {
			v6[id] += g.Count
		}
	}
	for _, p := range spec.V6Patterns {
		for _, id := range p {
			v6[id]++
		}
	}
	want6 := map[publicdns.ID]int{
		publicdns.Cloudflare: 11,
		publicdns.Google:     15,
		publicdns.Quad9:      11,
		publicdns.OpenDNS:    11,
	}
	for id, n := range want6 {
		if v6[id] != n {
			t.Errorf("%s v6 seats = %d, want %d", id, v6[id], n)
		}
	}
}

func TestExampleScenarioMatchesPaperShape(t *testing.T) {
	rows := study.ExampleScenario()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	r1053, r11992, r21823 := rows[0], rows[1], rows[2]

	// Probe 1053: expected responses, not intercepted, never step-2'd.
	if r1053.Verdict != core.VerdictNotIntercepted {
		t.Errorf("1053 verdict = %s", r1053.Verdict)
	}
	if r1053.LocCloudflare != "FRA" {
		t.Errorf("1053 cloudflare = %q, want an airport code", r1053.LocCloudflare)
	}
	if r1053.VBCPE != "-" || r1053.VBCloudflare != "-" {
		t.Errorf("1053 version.bind rows = %q/%q, want dashes", r1053.VBCPE, r1053.VBCloudflare)
	}

	// Probe 11992: intercepted in its ISP; NOTIMP from the alternate
	// resolver, NXDOMAIN from its own CPE — mismatched, so not the CPE.
	if r11992.Verdict != core.VerdictISP {
		t.Errorf("11992 verdict = %s", r11992.Verdict)
	}
	if r11992.VBCloudflare != "NOTIMP" || r11992.VBGoogle != "NOTIMP" {
		t.Errorf("11992 resolver version.bind = %q/%q, want NOTIMP", r11992.VBCloudflare, r11992.VBGoogle)
	}
	if r11992.VBCPE != "NXDOMAIN" {
		t.Errorf("11992 CPE version.bind = %q, want NXDOMAIN", r11992.VBCPE)
	}
	if r11992.LocGoogle == "" || r11992.LocGoogle == "timeout" {
		t.Errorf("11992 google loc = %q, want the alternate resolver's address", r11992.LocGoogle)
	}

	// Probe 21823: CPE interceptor; all version.bind strings identical.
	if r21823.Verdict != core.VerdictCPE {
		t.Errorf("21823 verdict = %s", r21823.Verdict)
	}
	if r21823.LocCloudflare != "routing.v2.pw" {
		t.Errorf("21823 cloudflare loc = %q", r21823.LocCloudflare)
	}
	for _, s := range []string{r21823.VBCloudflare, r21823.VBGoogle, r21823.VBCPE} {
		if s != "unbound 1.9.0" {
			t.Errorf("21823 version.bind = %q, want unbound 1.9.0", s)
		}
	}
}

func TestSmallStudyEndToEnd(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)
	w := study.BuildWorld(spec)
	res := study.Run(w)

	if got := w.Platform.Len(); got != spec.TotalProbes {
		t.Fatalf("built %d probes, want %d", got, spec.TotalProbes)
	}

	acc := fold(res).Accuracy()
	if acc.FalsePositives != 0 {
		t.Errorf("false positives = %d, want 0 (clean probes flagged)", acc.FalsePositives)
	}
	if acc.FalseNegatives != 0 {
		t.Errorf("false negatives = %d, want 0 (seats are fully available)", acc.FalseNegatives)
	}
	if acc.Mislocated != 0 {
		t.Errorf("mislocated = %d, want 0 in this spec", acc.Mislocated)
	}
	if acc.TruePositives == 0 {
		t.Fatal("no interception detected at all")
	}

	t4 := fold(res).Table4()
	if t4.DistinctIntercepted != acc.TruePositives {
		t.Errorf("distinct intercepted %d != true positives %d", t4.DistinctIntercepted, acc.TruePositives)
	}
	if t4.AllInterceptedV6 != 0 {
		t.Errorf("all-four v6 = %d, want 0", t4.AllInterceptedV6)
	}

	t5 := fold(res).Table5()
	cpeTruth := 0
	for _, rec := range res.Records {
		if rec.Probe.Truth.Location == "cpe" {
			cpeTruth++
		}
	}
	if t5.CPETotal != cpeTruth {
		t.Errorf("CPE-attributed = %d, ground truth CPE = %d", t5.CPETotal, cpeTruth)
	}

	f4 := fold(res).Figure4(15)
	if f4.CPE != t5.CPETotal {
		t.Errorf("figure4 CPE %d != table5 total %d", f4.CPE, t5.CPETotal)
	}
	if f4.CPE+f4.ISP+f4.Unknown != t4.DistinctIntercepted {
		t.Errorf("figure4 totals %d+%d+%d != %d", f4.CPE, f4.ISP, f4.Unknown, t4.DistinctIntercepted)
	}

	f3 := fold(res).Figure3(15)
	sum := 0
	for _, row := range f3.Rows {
		sum += row.Total
		if row.Transparent+row.Modified+row.Both != row.Total {
			t.Errorf("figure3 row %s does not add up: %+v", row.Org, row)
		}
	}
	if sum == 0 {
		t.Error("figure3 empty")
	}
}

func TestStudyDeterminism(t *testing.T) {
	spec := study.PaperSpec().Scale(0.02)
	a := fold(study.Run(study.BuildWorld(spec))).Table4()
	b := fold(study.Run(study.BuildWorld(spec))).Table4()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ:\n%+v\n%+v", a, b)
	}
}
