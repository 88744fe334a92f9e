package netsim_test

import (
	"sync"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// netAccumulator folds like the analysis accumulator and counts the
// chains the fault plane of each record's network holds while the
// record is folded, before its probe is released. netOf maps a
// measured probe to the network it was measured on.
type netAccumulator struct {
	*analysis.Accumulator
	mu     *sync.Mutex
	netOf  map[int]*netsim.Network
	chains *int
}

func (a netAccumulator) Fold(rec *study.ProbeRecord) {
	a.mu.Lock()
	if n := a.netOf[rec.Probe.ID]; n != nil {
		chains, _ := netsim.FaultFlows(n)
		*a.chains += chains
	}
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
	netOf := map[int]*netsim.Network{}
	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		chains, buckets := netsim.FaultFlows(c.(*core.SimClient).Net)
		mu.Lock()
		netOf[p.ID] = c.(*core.SimClient).Net
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
	folded := 0 // chains seen at fold time, summed over the records
	res, err := study.RunStreamed(spec, study.StreamOptions{
		Workers: 2,
		NewAccumulator: func(int) study.Accumulator {
			return netAccumulator{analysis.NewAccumulator(), &mu, netOf, &folded}
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
	nets := map[*netsim.Network]bool{}
	for _, n := range netOf {
		nets[n] = true
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

// TestDNATFlowsEndWithTheProbe: under the fault plane, a DNAT'd query
// whose reply is lost leaves its conntrack entry behind. The transit
// interceptors' NATs and the segment middlebox's NAT hold none of them
// when a probe's measurement starts, nor after the run.
func TestDNATFlowsEndWithTheProbe(t *testing.T) {
	spec := study.PaperSpec().Scale(0.2)
	fault := netsim.PresetFault(0.5, spec.Seed+9000)
	spec.Fault = &fault
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	upstream := publicdns.Lookup(publicdns.Google).V4[0]
	var w *study.World
	held := func() int {
		n := 0
		for _, r := range w.Backbone.Regional {
			n += netsim.DNATFlows(r.NAT)
		}
		return n
	}
	measured, leftovers := 0, 0
	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		measured++
		n := held()
		if seg, ok := netsim.NextHop(p.Host.Gateway.(*netsim.Router), upstream).(*netsim.Router); ok {
			n += netsim.DNATFlows(seg.NAT)
		}
		if n > 0 {
			leftovers++
			if leftovers == 1 {
				t.Errorf("probe %d starts with %d DNAT entries held", p.ID, n)
			}
		}
		return c
	}
	w = study.BuildWorld(spec)
	study.Run(w)
	if measured == 0 {
		t.Fatal("no probe measured")
	}
	if leftovers > 0 {
		t.Errorf("%d of %d probes started with another probe's DNAT entries", leftovers, measured)
	}
	if n := held(); n > 0 {
		t.Errorf("the transit NATs hold %d DNAT entries after the run", n)
	}
}
