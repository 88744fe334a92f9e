package study_test

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/study"
)

// TestStreamedHomesBounded pins the home lifecycle: a probe's home is
// built only for its measurement and released after it. Homes built
// equals probes measured, so dead, offline and checkpoint-skipped
// probes are never built, and no world ever holds more than one home
// at a time — at any shard layout, and across a kill and resume.
func TestStreamedHomesBounded(t *testing.T) {
	spec := streamSpec()
	check := func(t *testing.T, res *study.StreamResults) {
		t.Helper()
		snap := res.MetricsSnapshot(true)
		built := counterValue(t, snap, "study.homes_built")
		measured := counterValue(t, snap, "study.probes_measured")
		if built != measured {
			t.Errorf("homes built = %d, probes measured = %d", built, measured)
		}
		if counterValue(t, snap, "study.probes_unresponsive") == 0 {
			t.Error("no unresponsive probes: the run does not show they go unbuilt")
		}
		if peak := gaugeValue(t, snap, "study.homes_live_peak"); peak != 1 {
			t.Errorf("live homes peak = %d, want 1 per world", peak)
		}
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"w1l1", 1}, {"w2l1", 2}} {
		t.Run(c.name, func(t *testing.T) {
			check(t, mustStream(t, spec, streamOpts(c.workers)))
		})
	}

	t.Run("kill-resume", func(t *testing.T) {
		dir := t.TempDir()
		killed := streamOpts(2)
		killed.CheckpointDir = dir
		killed.CheckpointEvery = 10
		killed.StopAfterProbes = 25
		kRes := mustStream(t, spec, killed)
		if !kRes.Stopped {
			t.Fatal("StopAfterProbes did not halt the run")
		}
		check(t, kRes)

		resumed := streamOpts(2)
		resumed.CheckpointDir = dir
		resumed.CheckpointEvery = 10
		resumed.Resume = true
		rRes := mustStream(t, spec, resumed)
		if rRes.Skipped == 0 {
			t.Fatal("resumed run skipped no probes")
		}
		// The restored registry carries the checkpointed prefix's homes
		// and measurements once; a skipped probe built again would push
		// homes built past probes measured.
		check(t, rRes)
	})
}
