package analysis

import (
	"fmt"
	"slices"
	"sort"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/render"
	"github.com/dnswatch/dnsloc/internal/study"
)

// PatternBreakdown quantifies §4.1.1's observation about interception
// patterns: most intercepted probes are intercepted for all four
// resolvers; among the rest, the common families are "only one resolver
// intercepted" (Google and Cloudflare more often than the others,
// presumably for their market share) and "only one resolver allowed"
// (deliberate single-resolver policies).
type PatternBreakdown struct {
	Family core.Family

	AllFour int
	// OnlyOne counts probes where exactly this resolver is intercepted.
	OnlyOne map[publicdns.ID]int
	// OnlyOneAllowed counts probes where every resolver except this one
	// is intercepted.
	OnlyOneAllowed map[publicdns.ID]int
	// Pairs counts two-resolver patterns.
	Pairs int
	// Total is the number of probes intercepted in this family.
	Total int
}

// NewPatternBreakdown starts the family's empty pattern histogram.
func NewPatternBreakdown(family core.Family) *PatternBreakdown {
	return &PatternBreakdown{
		Family:         family,
		OnlyOne:        make(map[publicdns.ID]int),
		OnlyOneAllowed: make(map[publicdns.ID]int),
	}
}

// Add folds one probe's export into the histogram.
func (b *PatternBreakdown) Add(e *study.ProbeExport) {
	set := e.InterceptedV4
	if b.Family == core.V6 {
		set = e.InterceptedV6
	}
	if len(set) == 0 {
		return
	}
	b.Total++
	switch len(set) {
	case len(publicdns.All):
		b.AllFour++
	case 1:
		b.OnlyOne[publicdns.ID(set[0])]++
	case len(publicdns.All) - 1:
		b.OnlyOneAllowed[missingOf(set)]++
	case 2:
		b.Pairs++
	}
}

// missingOf finds the operator absent from a three-element set.
func missingOf(set []string) publicdns.ID {
	for _, id := range publicdns.All {
		if !slices.Contains(set, string(id)) {
			return id
		}
	}
	return ""
}

// FormatPatternBreakdown renders the histogram.
func FormatPatternBreakdown(b PatternBreakdown) string {
	rows := [][]string{{"Pattern (" + string(b.Family) + ")", "Probes"}}
	rows = append(rows, []string{"all four intercepted", fmt.Sprint(b.AllFour)})
	ids := append([]publicdns.ID(nil), publicdns.All...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if n := b.OnlyOne[id]; n > 0 {
			rows = append(rows, []string{"only " + string(id) + " intercepted", fmt.Sprint(n)})
		}
	}
	for _, id := range ids {
		if n := b.OnlyOneAllowed[id]; n > 0 {
			rows = append(rows, []string{"only " + string(id) + " allowed", fmt.Sprint(n)})
		}
	}
	rows = append(rows, []string{"two-resolver patterns", fmt.Sprint(b.Pairs)})
	rows = append(rows, []string{"total intercepted", fmt.Sprint(b.Total)})
	return "Interception patterns (§4.1.1)\n\n" + render.Table(rows)
}
