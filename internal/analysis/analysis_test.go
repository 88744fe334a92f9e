package analysis

import (
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/study"
)

func TestGroupVersionString(t *testing.T) {
	cases := map[string]string{
		"dnsmasq-2.85":             "dnsmasq-*",
		"dnsmasq-2.78":             "dnsmasq-*",
		"dnsmasq-pi-hole-2.87":     "dnsmasq-pi-hole-*",
		"unbound 1.9.0":            "unbound*",
		"unbound 1.13.1":           "unbound*",
		"9.11.4-RedHat":            "*-RedHat",
		"9.16.1-Debian":            "*-Debian",
		"PowerDNS Recursor 4.1.11": "PowerDNS Recursor*",
		"Q9-P-7.5":                 "Q9-*",
		"9.16.15":                  "9.16.15",
		"Windows NS":               "Windows NS",
		"Microsoft":                "Microsoft",
		"huuh?":                    "huuh?",
		"new":                      "new",
	}
	for in, want := range cases {
		if got := GroupVersionString(in); got != want {
			t.Errorf("GroupVersionString(%q) = %q, want %q", in, got, want)
		}
	}
}

// sharedResults caches one small study for the format tests.
var sharedResults *study.Results

func results(t *testing.T) *study.Results {
	t.Helper()
	if sharedResults == nil {
		sharedResults = study.Run(study.BuildWorld(study.PaperSpec().Scale(0.05)))
	}
	return sharedResults
}

// fold folds every record of an in-memory run into one accumulator, the
// way the streamed engine folds them as they complete.
func fold(res *study.Results) *Accumulator {
	acc := NewAccumulator()
	for _, rec := range res.Records {
		acc.Fold(rec)
	}
	return acc
}

func TestFormatTable1ContainsPaperRows(t *testing.T) {
	out := FormatTable1()
	for _, want := range []string{
		"Cloudflare DNS", "CHAOS TXT", "id.server", "IAD",
		"Google DNS", "o-o.myaddr.l.google.com",
		"Quad9", "res100.iad.rrdns.pch.net",
		"OpenDNS", "debug.opendns.com", "server m84.iad",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTables2And3(t *testing.T) {
	rows := study.ExampleScenario()
	t2 := FormatTable2(rows)
	for _, want := range []string{"1053", "11992", "21823", "Cloudflare DNS", "Google DNS"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	t3 := FormatTable3(rows)
	for _, want := range []string{"CPE Public IP", "NXDOMAIN", "unbound 1.9.0", "-"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestFormatTable4Shape(t *testing.T) {
	t4 := fold(results(t)).Table4()
	out := FormatTable4(t4)
	for _, want := range []string{"Cloudflare DNS", "All Intercepted", "Intercepted v4", "Total v6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
	if len(t4.Rows) != 4 {
		t.Errorf("rows = %d", len(t4.Rows))
	}
}

func TestFormatTable5Shape(t *testing.T) {
	t5 := fold(results(t)).Table5()
	out := FormatTable5(t5)
	if !strings.Contains(out, "version.bind Response") || !strings.Contains(out, "dnsmasq-*") {
		t.Errorf("Table 5:\n%s", out)
	}
	// Rows are sorted by count descending.
	for i := 1; i < len(t5.Rows); i++ {
		if t5.Rows[i].Probes > t5.Rows[i-1].Probes {
			t.Errorf("Table 5 not sorted at %d", i)
		}
	}
}

func TestFormatFiguresShape(t *testing.T) {
	f3 := FormatFigure3(fold(results(t)).Figure3(15))
	if !strings.Contains(f3, "legend:") || !strings.Contains(f3, "Transparent") {
		t.Errorf("Figure 3:\n%s", f3)
	}
	f4 := FormatFigure4(fold(results(t)).Figure4(15))
	for _, want := range []string{"Top 15 countries", "Top 15 organizations", "CPE"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure 4 missing %q", want)
		}
	}
}

func TestCSVTable4(t *testing.T) {
	out := CSVTable4(fold(results(t)).Table4())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + 4 resolvers + all
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "resolver,intercepted_v4,total_v4,intercepted_v6,total_v6" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[5], "all,") {
		t.Errorf("last line = %q", lines[5])
	}
}

func TestFormatAccuracy(t *testing.T) {
	out := FormatAccuracy(fold(results(t)).Accuracy())
	for _, want := range []string{"True positives", "Mislocated", "bogon-droppers"} {
		if !strings.Contains(out, want) {
			t.Errorf("accuracy missing %q:\n%s", want, out)
		}
	}
}
