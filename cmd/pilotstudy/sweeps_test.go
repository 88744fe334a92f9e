package main

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestSweepDeterminism renders the CLI's sweeps over (workers, lanes)
// grids and asserts byte-identical tables. Every fault decision, every
// adversary draw (forged personas, bogon gating, per-client CHAOS
// budgets), every session ticket and handshake, and the adoption draw
// itself are pure functions of seeds and flow identity, never of shard
// or lane layout, so each matrix must render the same at any grid.
func TestSweepDeterminism(t *testing.T) {
	encGrid := []study.StreamOptions{{Workers: 1, Lanes: 1}, {Workers: 4, Lanes: 1}, {Workers: 2, Lanes: 3}}
	cases := []struct {
		name  string
		scale float64
		sweep func(study.Spec) ([]study.Spec, renderFunc)
		grid  []study.StreamOptions
	}{
		{"adversary", 0.1, adversarySweep, []study.StreamOptions{{Workers: 1}, {Workers: 4}}},
		{"adversary-lanes", 0.05, adversarySweep, []study.StreamOptions{{Workers: 1, Lanes: 1}, {Workers: 1, Lanes: 4}, {Workers: 4, Lanes: 2}}},
		{"resilience-lanes", 0.05, resilienceSweep, []study.StreamOptions{{Workers: 1, Lanes: 1}, {Workers: 4, Lanes: 2}}},
		{"encryption", 0.05, func(s study.Spec) ([]study.Spec, renderFunc) { return encryptionSweep(s, false) }, encGrid},
		{"encryption-faults", 0.02, func(s study.Spec) ([]study.Spec, renderFunc) { return encryptionSweep(s, true) }, encGrid},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("renders every sweep cell at each grid point")
			}
			cells, render := c.sweep(study.PaperSpec().Scale(c.scale))
			var want string
			for i, opts := range c.grid {
				accs, err := analysis.Sweep(cells, opts)
				if err != nil {
					t.Fatalf("w%d l%d: %v", opts.Workers, opts.Lanes, err)
				}
				got := render(accs)
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("w%d l%d diverges from w%d l%d:\n--- want ---\n%s--- got ---\n%s",
						opts.Workers, opts.Lanes, c.grid[0].Workers, c.grid[0].Lanes, want, got)
				}
			}
		})
	}
}
