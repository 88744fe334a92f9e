package analysis

import (
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

func TestPatternBreakdownSums(t *testing.T) {
	b := patternsOf(results(t).Records, core.V4)
	if b.Total == 0 {
		t.Fatal("no intercepted probes")
	}
	ones, allowed := 0, 0
	for _, n := range b.OnlyOne {
		ones += n
	}
	for _, n := range b.OnlyOneAllowed {
		allowed += n
	}
	if b.AllFour+ones+allowed+b.Pairs != b.Total {
		t.Errorf("patterns don't sum: %d+%d+%d+%d != %d",
			b.AllFour, ones, allowed, b.Pairs, b.Total)
	}
	// At the tiny test scale the per-group minimum of Scale() inflates
	// partial patterns, so assert only that all-four is the single
	// largest pattern; the paper-scale test asserts the majority.
	for id, n := range b.OnlyOne {
		if n > b.AllFour {
			t.Errorf("only-%s (%d) exceeds all-four (%d)", id, n, b.AllFour)
		}
	}
}

func TestPatternBreakdownV6HasNoAllFour(t *testing.T) {
	b := patternsOf(results(t).Records, core.V6)
	if b.AllFour != 0 {
		t.Errorf("v6 all-four = %d", b.AllFour)
	}
}

func TestMissingOf(t *testing.T) {
	got := missingOf([]string{string(publicdns.Cloudflare), string(publicdns.Google), string(publicdns.Quad9)})
	if got != publicdns.OpenDNS {
		t.Errorf("missingOf = %s", got)
	}
}

func TestFormatPatternBreakdown(t *testing.T) {
	out := FormatPatternBreakdown(*patternsOf(results(t).Records, core.V4))
	for _, want := range []string{"all four intercepted", "total intercepted", "IPv4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTTLExtension(t *testing.T) {
	res := results(t)
	targets := study.TTLTargets{CleanSample: 5}
	for _, rec := range res.Records {
		var e study.ProbeExport
		study.ExportRecordInto(rec, &e)
		targets.Add(&e)
	}
	stats := study.RunTTLExtension(res.World.Spec, targets.Targets, 10)
	out := FormatTTLExtension(stats)
	for _, want := range []string{"TTL-ladder", "intercepted by CPE", "min/median/max"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Hop ordering at small scale too.
	if c, i := stats.Median(core.VerdictCPE), stats.Median(core.VerdictISP); c >= i {
		t.Errorf("median TTL cpe=%d isp=%d, want cpe < isp", c, i)
	}
}
