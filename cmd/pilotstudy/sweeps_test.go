package main

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestSweepDeterminism renders the CLI's sweeps at several worker
// counts and asserts byte-identical tables. Every fault decision, every
// adversary draw (forged personas, bogon gating, per-client CHAOS
// budgets), every session ticket and handshake, and the adoption draw
// itself are pure functions of seeds and flow identity, never of shard
// layout, so each matrix must render the same at any worker count.
func TestSweepDeterminism(t *testing.T) {
	encGrid := []study.StreamOptions{{Workers: 1}, {Workers: 4}, {Workers: 2}}
	cases := []struct {
		name  string
		scale float64
		sweep func(study.Spec) ([]study.Spec, renderFunc)
		grid  []study.StreamOptions
	}{
		{"adversary", 0.1, adversarySweep, []study.StreamOptions{{Workers: 1}, {Workers: 4}, {Workers: 2}}},
		{"resilience", 0.05, resilienceSweep, []study.StreamOptions{{Workers: 1}, {Workers: 4}}},
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
					t.Fatalf("w%d: %v", opts.Workers, err)
				}
				got := render(accs)
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("w%d diverges from w%d:\n--- want ---\n%s--- got ---\n%s",
						opts.Workers, c.grid[0].Workers, want, got)
				}
			}
		})
	}
}
