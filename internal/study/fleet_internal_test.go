package study

import (
	"runtime"
	"testing"
)

// worldHeap is the live heap each of n worlds built from tpl for spec
// holds, on average, with all n kept alive.
func worldHeap(tpl *WorldTemplate, spec Spec, n int) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	worlds := make([]*World, n)
	for i := range worlds {
		worlds[i] = tpl.Build(spec)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(worlds)
	return (after.HeapAlloc - before.HeapAlloc) / uint64(n)
}

// TestWorldHeapIndependentOfFleet pins fleet independence: a world
// that owns 10k probes holds the same heap, within 5%, whether the
// fleet is those 10k (Shard(0,1) of paper scale) or ten times as many
// (Shard(0,10) of scale 10). The fleet and the plan belong to the
// template; a world holds no per-probe state for its own probes or
// anyone else's, and binds one access segment at a time.
func TestWorldHeapIndependentOfFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-probe template")
	}
	small, large := PaperSpec(), PaperSpec().Scale(10)
	smallTpl, largeTpl := NewWorldTemplate(small), NewWorldTemplate(large)
	// The first worlds of a process come out a little smaller than
	// later ones; measure only after they have settled.
	for i := 0; i < 2; i++ {
		smallTpl.Build(small.Shard(0, 1))
		largeTpl.Build(large.Shard(0, 10))
	}
	hs := worldHeap(smallTpl, small.Shard(0, 1), 3)
	hl := worldHeap(largeTpl, large.Shard(0, 10), 3)
	growth := float64(hl)/float64(hs) - 1
	t.Logf("world heap: %d B at a 10k fleet, %d B at a 100k fleet (%+.1f%%)", hs, hl, 100*growth)
	if growth > 0.05 || growth < -0.05 {
		t.Errorf("a world owning 10k probes holds %d B at a 100k fleet against %d B at a 10k fleet (%+.1f%%), want within 5%%",
			hl, hs, 100*growth)
	}
}
