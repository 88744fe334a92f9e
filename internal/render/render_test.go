package render

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table([][]string{
		{"Name", "Count"},
		{"dnsmasq-*", "23"},
		{"unbound*", "6"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("no rule line:\n%s", out)
	}
	// All rows align: the Count column starts at the same offset.
	idx := strings.Index(lines[0], "Count")
	if strings.Index(lines[2], "23") != idx {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	if Table(nil) != "" {
		t.Error("empty table should render empty")
	}
}

func TestBarsScaleAndLegend(t *testing.T) {
	out := Bars("Title", []BarEntry{
		{Label: "Comcast", Segments: []BarSegment{
			{Label: "Transparent", Value: 30, Rune: '#'},
			{Label: "Modified", Value: 10, Rune: 'x'},
		}},
		{Label: "Shaw", Segments: []BarSegment{
			{Label: "Transparent", Value: 8, Rune: '#'},
		}},
	}, 40)
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "40") || !strings.Contains(out, "8") {
		t.Errorf("missing totals:\n%s", out)
	}
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "#=Transparent") {
		t.Errorf("missing legend:\n%s", out)
	}
	// The largest bar fills the width.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Comcast") {
			if n := strings.Count(line, "#") + strings.Count(line, "x"); n != 40 {
				t.Errorf("largest bar drawn with %d runes, want 40", n)
			}
		}
	}
}

func TestBarsNonZeroValuesVisible(t *testing.T) {
	// A tiny value next to a huge one still renders at least one rune.
	out := Bars("", []BarEntry{
		{Label: "big", Segments: []BarSegment{{Label: "a", Value: 1000, Rune: '#'}}},
		{Label: "tiny", Segments: []BarSegment{{Label: "a", Value: 1, Rune: '#'}}},
	}, 30)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "#") {
			t.Errorf("tiny value invisible:\n%s", out)
		}
	}
}

func TestBarsEmptyValues(t *testing.T) {
	out := Bars("t", []BarEntry{{Label: "none", Segments: []BarSegment{{Label: "a", Value: 0, Rune: '#'}}}}, 10)
	if !strings.Contains(out, "none") {
		t.Errorf("entry dropped:\n%s", out)
	}
}

func TestCSVQuoting(t *testing.T) {
	out := CSV([][]string{
		{"org", "count"},
		{`Liberty Global, DE`, "9"},
		{`quote"inside`, "1"},
	})
	want := "org,count\n\"Liberty Global, DE\",9\n\"quote\"\"inside\",1\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestKVAlignment(t *testing.T) {
	out := KV([][2]string{
		{"probes folded", "9874"},
		{"skipped", "126"},
	})
	want := "probes folded  9874\nskipped        126\n"
	if out != want {
		t.Errorf("KV = %q, want %q", out, want)
	}
	if KV(nil) != "" {
		t.Errorf("KV(nil) = %q, want empty", KV(nil))
	}
}

// TestBarsNearIntRange: counts near the int range scale without
// overflowing Value*width, so each bar keeps to the width.
func TestBarsNearIntRange(t *testing.T) {
	const big = int(^uint(0) >> 1)
	out := Bars("", []BarEntry{
		{Label: "full", Segments: []BarSegment{{Label: "a", Value: big - 1, Rune: '#'}, {Label: "b", Value: 1, Rune: 'x'}}},
		{Label: "half", Segments: []BarSegment{{Label: "a", Value: big / 2, Rune: '#'}}},
	}, 40)
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#") + strings.Count(line, "x")
		if strings.HasPrefix(line, "full") && n != 40 || strings.HasPrefix(line, "half") && n != 19 {
			t.Errorf("bar drawn with %d runes:\n%s", n, out)
		}
	}
}
