package analysis

import (
	"strings"
	"testing"
)

func TestPopulationBiasShape(t *testing.T) {
	rows := populationOf(results(t).Records).Rows()
	if len(rows) < 10 {
		t.Fatalf("countries = %d", len(rows))
	}
	// Atlas bias: the US leads the fleet.
	if rows[0].Country != "US" {
		t.Errorf("largest population = %s, want US", rows[0].Country)
	}
	totalProbes, totalResp := 0, 0
	for _, r := range rows {
		if r.Responding > r.Probes || r.Intercepted > r.Responding {
			t.Errorf("%s: inconsistent counts %+v", r.Country, r)
		}
		totalProbes += r.Probes
		totalResp += r.Responding
	}
	if totalProbes != results(t).World.Spec.TotalProbes {
		t.Errorf("population %d != spec %d", totalProbes, results(t).World.Spec.TotalProbes)
	}
	// Availability model: a few percent never respond.
	if totalResp >= totalProbes {
		t.Error("every probe responded; availability model inactive")
	}
	if float64(totalResp) < 0.9*float64(totalProbes) {
		t.Errorf("only %d/%d responding; availability model too harsh", totalResp, totalProbes)
	}
}

func TestFormatPopulation(t *testing.T) {
	out := FormatPopulation(populationOf(results(t).Records).Rows())
	for _, want := range []string{"Country", "total", "US"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
