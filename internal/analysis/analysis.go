// Package analysis aggregates pilot-study results into the paper's
// tables and figures: interception counts per resolver (Table 4),
// version.bind string groups (Table 5), transparency per organization
// (Figure 3), and interceptor location per country and organization
// (Figure 4). It also scores the technique against the simulator's
// ground truth — an evaluation the paper could not perform on the real
// Internet.
package analysis

import (
	"sort"
	"strings"

	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Table4Row is one operator's line in Table 4.
type Table4Row struct {
	Resolver      publicdns.ID
	Display       string
	InterceptedV4 int
	TotalV4       int
	InterceptedV6 int
	TotalV6       int
}

// Table4 reproduces "Number of intercepted probes per public resolver".
type Table4 struct {
	Rows []Table4Row
	// The "All Intercepted" line: probes online for all four experiments
	// of a family and intercepted for all four.
	AllInterceptedV4 int
	AllTotalV4       int
	AllInterceptedV6 int
	AllTotalV6       int
	// DistinctIntercepted is the paper's "220 probes".
	DistinctIntercepted int
}

// Table5Row is one version.bind string group.
type Table5Row struct {
	Group  string
	Probes int
}

// Table5 reproduces "Strings sent in response to version.bind" for the
// probes the technique attributes to CPE interception.
type Table5 struct {
	Rows     []Table5Row
	CPETotal int
}

// GroupVersionString maps a raw version.bind string to its Table 5
// group, using the paper's wildcard conventions.
func GroupVersionString(s string) string {
	switch {
	case strings.HasPrefix(s, "dnsmasq-pi-hole"):
		return "dnsmasq-pi-hole-*"
	case strings.HasPrefix(s, "dnsmasq"):
		return "dnsmasq-*"
	case strings.HasPrefix(s, "unbound"):
		return "unbound*"
	case strings.HasSuffix(s, "-RedHat"):
		return "*-RedHat"
	case strings.HasSuffix(s, "-Debian"):
		return "*-Debian"
	case strings.HasPrefix(s, "PowerDNS Recursor"):
		return "PowerDNS Recursor*"
	case strings.HasPrefix(s, "Q9-"):
		return "Q9-*"
	default:
		return s
	}
}

// sortTable5 orders groups by descending probe count, then name.
func sortTable5(rows []Table5Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Probes != rows[j].Probes {
			return rows[i].Probes > rows[j].Probes
		}
		return rows[i].Group < rows[j].Group
	})
}

// Figure3Row is one organization's transparency breakdown.
type Figure3Row struct {
	Org         string
	ASN         int
	Transparent int
	Modified    int
	Both        int
	Total       int
}

// Figure3 reproduces "Intercepted probes per top 15 organizations".
type Figure3 struct {
	Rows []Figure3Row
}

// sortFigure3 orders organizations by descending total, then name.
func sortFigure3(rows []Figure3Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Org < rows[j].Org
	})
}

// Figure4Row is one country's or organization's location breakdown.
type Figure4Row struct {
	Label   string
	CPE     int
	ISP     int
	Unknown int
	Total   int
}

// Figure4 reproduces "Interception location for the 15 countries and
// organizations with the most intercepted probes".
type Figure4 struct {
	Countries []Figure4Row
	Orgs      []Figure4Row
	// Totals across all intercepted probes.
	CPE, ISP, Unknown int
}

// topRows sorts and truncates a row map.
func topRows(m map[string]*Figure4Row, n int) []Figure4Row {
	var rows []Figure4Row
	for _, row := range m {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Label < rows[j].Label
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Accuracy scores the technique against the simulator's ground truth —
// only possible here, where the interceptors' true locations are known.
type Accuracy struct {
	// Detection confusion (intercepted yes/no).
	TruePositives, FalsePositives, TrueNegatives, FalseNegatives int
	// Localization outcomes among true positives.
	CorrectCPE, CorrectISP, CorrectUnknown int
	// MislocatedCPE counts probes blamed on the CPE whose true
	// interceptor was elsewhere (§6's misclassification), and vice versa.
	Mislocated int
	// HiddenAsUnknown counts in-AS interceptors the technique correctly
	// could not place (they drop bogons) — unknown is the *right* answer.
	HiddenAsUnknown int
}
