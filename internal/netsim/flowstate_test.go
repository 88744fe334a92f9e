package netsim_test

import (
	"sync"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// netAccumulator folds like the analysis accumulator, remembers the
// networks its records were measured on and counts the chains their
// fault planes hold while a record is folded, before its probe is
// released.
type netAccumulator struct {
	*analysis.Accumulator
	mu     *sync.Mutex
	nets   map[*netsim.Network]bool
	chains *int
}

func (a netAccumulator) Fold(rec *study.ProbeRecord) {
	chains, _ := netsim.FaultFlows(rec.Net)
	a.mu.Lock()
	a.nets[rec.Net] = true
	*a.chains += chains
	a.mu.Unlock()
	a.Accumulator.Fold(rec)
}

func (a netAccumulator) Merge(other study.Accumulator) error {
	return a.Accumulator.Merge(other.(netAccumulator).Accumulator)
}

// TestFaultFlowsEndWithTheProbe: in a faulted streamed run, the fault
// plane holds no chain or token bucket when a probe's measurement
// starts, so nothing of a released probe is left; and after the run,
// every shard's plane is empty.
func TestFaultFlowsEndWithTheProbe(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)
	fault := netsim.PresetFault(0.5, spec.Seed+9000)
	spec.Fault = &fault
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	var mu sync.Mutex
	measured, leftovers := 0, 0
	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		chains, buckets := netsim.FaultFlows(c.(*core.SimClient).Net)
		mu.Lock()
		measured++
		if chains+buckets > 0 {
			leftovers++
			if leftovers == 1 {
				t.Errorf("probe %d starts with %d chains and %d buckets in the plane", p.ID, chains, buckets)
			}
		}
		mu.Unlock()
		return c
	}
	nets := map[*netsim.Network]bool{}
	folded := 0 // chains seen at fold time, summed over the records
	res, err := study.RunStreamed(spec, study.StreamOptions{
		Workers: 2,
		NewAccumulator: func(int) study.Accumulator {
			return netAccumulator{analysis.NewAccumulator(), &mu, nets, &folded}
		},
	})
	if err != nil || len(res.Errors) > 0 {
		t.Fatal(err, res.Errors)
	}
	if measured == 0 || folded == 0 {
		t.Fatalf("%d probes measured, %d chains seen at fold time: the plane was never used", measured, folded)
	}
	if leftovers > 0 {
		t.Errorf("%d of %d probes started with another probe's fault state", leftovers, measured)
	}
	if len(nets) != 2 {
		t.Fatalf("records came from %d networks, want 2", len(nets))
	}
	for n := range nets {
		if chains, buckets := netsim.FaultFlows(n); chains+buckets > 0 {
			t.Errorf("a shard's fault plane holds %d chains and %d buckets after the run", chains, buckets)
		}
	}
}
