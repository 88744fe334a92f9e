package core_test

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/homelab"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// TestRetriesSurviveLossyNetwork injects 10% per-hop client-flow loss
// (a drop-only fault profile) — a brutally lossy path — and checks that the
// detector with retries still localizes the XB6, while losses never
// produce false interception evidence (timeouts are conservative).
func TestRetriesSurviveLossyNetwork(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	lab.Net.SetDefaultFault(netsim.FaultProfile{Seed: 7, LossGood: 0.10})
	det := lab.Detector()
	det.Retries = 5
	r := det.Run()
	if r.Verdict != core.VerdictCPE {
		t.Errorf("verdict under loss = %s, want CPE\n%s", r.Verdict, r)
	}
}

func TestLossNeverFabricatesInterception(t *testing.T) {
	// A clean home under heavy loss: some queries die, but no answer is
	// ever non-standard, so the verdict stays "not intercepted" — the
	// conservative-timeout rule of §3.1 in action.
	for seed := int64(1); seed <= 5; seed++ {
		lab := homelab.New(homelab.Clean)
		lab.Net.SetDefaultFault(netsim.FaultProfile{Seed: seed, LossGood: 0.25})
		r := lab.Detector().Run()
		if r.Intercepted() {
			t.Errorf("seed %d: loss produced interception evidence\n%s", seed, r)
		}
	}
}

func TestHeavyLossDegradesToTimeouts(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	lab.Net.SetDefaultFault(netsim.FaultProfile{Seed: 3, LossGood: 0.9})
	r := lab.Detector().Run()
	timeouts := 0
	for _, p := range r.Location {
		if p.Outcome == core.OutcomeTimeout {
			timeouts++
		}
	}
	if timeouts < len(r.Location)/2 {
		t.Errorf("only %d/%d location probes timed out at 90%% loss", timeouts, len(r.Location))
	}
	if r.Verdict != core.VerdictNotIntercepted {
		t.Errorf("verdict = %s", r.Verdict)
	}
}
