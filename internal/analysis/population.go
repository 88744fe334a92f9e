package analysis

import (
	"fmt"
	"sort"

	"github.com/dnswatch/dnsloc/internal/render"
	"github.com/dnswatch/dnsloc/internal/study"
)

// PopulationRow documents the platform's geographic bias, the caveat §4
// leads with: RIPE Atlas (and therefore the synthetic fleet) is heavily
// skewed toward Europe and North America.
type PopulationRow struct {
	Country string
	Probes  int
	// Responding counts probes that answered at least one experiment.
	Responding int
	// Intercepted counts detected interception.
	Intercepted int
}

// Population folds probes into per-country rows.
type Population map[string]*PopulationRow

// Add folds one probe's export.
func (p Population) Add(e *study.ProbeExport) {
	row := p[e.Country]
	if row == nil {
		row = &PopulationRow{Country: e.Country}
		p[e.Country] = row
	}
	row.Probes++
	if e.Responded {
		row.Responding++
		if len(e.InterceptedV4) > 0 || len(e.InterceptedV6) > 0 {
			row.Intercepted++
		}
	}
}

// Rows returns the fleet per country, descending by size.
func (p Population) Rows() []PopulationRow {
	rows := make([]PopulationRow, 0, len(p))
	for _, row := range p {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Probes != rows[j].Probes {
			return rows[i].Probes > rows[j].Probes
		}
		return rows[i].Country < rows[j].Country
	})
	return rows
}

// FormatPopulation renders the bias table.
func FormatPopulation(rows []PopulationRow) string {
	out := [][]string{{"Country", "Probes", "Responding", "Intercepted"}}
	total := PopulationRow{Country: "total"}
	for _, r := range rows {
		out = append(out, []string{
			r.Country, fmt.Sprint(r.Probes), fmt.Sprint(r.Responding), fmt.Sprint(r.Intercepted),
		})
		total.Probes += r.Probes
		total.Responding += r.Responding
		total.Intercepted += r.Intercepted
	}
	out = append(out, []string{
		total.Country, fmt.Sprint(total.Probes), fmt.Sprint(total.Responding), fmt.Sprint(total.Intercepted),
	})
	return "Probe population by country (the platform bias §4 cautions about)\n\n" +
		render.Table(out)
}
