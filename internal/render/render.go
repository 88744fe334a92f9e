// Package render draws the study's tables and figures as text: aligned
// ASCII tables, horizontal stacked bar charts, and CSV for downstream
// plotting.
package render

import (
	"fmt"
	"math/bits"
	"strings"
)

// Table renders rows with aligned columns. The first row is the header.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(rows[0])
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range rows[1:] {
		writeRow(row)
	}
	return sb.String()
}

// BarSegment is one stacked-bar component.
type BarSegment struct {
	Label string
	Value int
	Rune  rune
}

// Bars renders a horizontal stacked bar chart: one row per entry, each
// value drawn to scale with its segment rune, with a legend.
func Bars(title string, entries []BarEntry, width int) string {
	if width <= 0 {
		width = 40
	}
	longest := 1
	for _, e := range entries {
		total := 0
		for _, s := range e.Segments {
			total += s.Value
		}
		longest = max(longest, total)
	}
	labelW := 0
	for _, e := range entries {
		if len(e.Label) > labelW {
			labelW = len(e.Label)
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	legend := map[string]rune{}
	for _, e := range entries {
		total := 0
		var bar strings.Builder
		for _, s := range e.Segments {
			total += s.Value
			n := 0
			if s.Value > 0 {
				// Value*width/longest in 128 bits, so counts near the int
				// range cannot overflow; clamped, no bar outgrows width.
				hi, lo := bits.Mul64(uint64(min(s.Value, longest)), uint64(width))
				q, _ := bits.Div64(hi, lo, uint64(longest))
				n = max(int(q), 1)
			}
			bar.WriteString(strings.Repeat(string(s.Rune), n))
			legend[s.Label] = s.Rune
		}
		fmt.Fprintf(&sb, "%-*s |%-*s %d\n", labelW, e.Label, width, bar.String(), total)
	}
	// Stable legend order: by first appearance in the entries.
	var ordered []string
	seen := map[string]bool{}
	for _, e := range entries {
		for _, s := range e.Segments {
			if !seen[s.Label] {
				seen[s.Label] = true
				ordered = append(ordered, s.Label)
			}
		}
	}
	if len(ordered) > 0 {
		sb.WriteString("legend:")
		for _, k := range ordered {
			fmt.Fprintf(&sb, "  %c=%s", legend[k], k)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// BarEntry is one bar of a chart.
type BarEntry struct {
	Label    string
	Segments []BarSegment
}

// KV renders aligned key-value lines — the run-summary block the CLI
// prints after a streamed study:
//
//	probes folded     9874
//	probes skipped    126
//	checkpoints       10
func KV(pairs [][2]string) string {
	width := 0
	for _, p := range pairs {
		if len(p[0]) > width {
			width = len(p[0])
		}
	}
	var sb strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%-*s  %s\n", width, p[0], p[1])
	}
	return sb.String()
}

// CSV renders rows as comma-separated values with minimal quoting.
func CSV(rows [][]string) string {
	var sb strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
