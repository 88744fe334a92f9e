package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// geStreamDraws crosses lfTap, so every seed also checks the switch to
// the real source mid-stream.
const geStreamDraws = 900

// TestGEStreamMatchesMathRand pins the lazy source to math/rand's value
// stream bit for bit: the fault plane's goldens and the benchmark's
// output digest were recorded with rand.New(rand.NewSource(seed)), so a
// single differing draw would move every faulted table.
func TestGEStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1,
		lfMod, -lfMod, lfMod - 1, lfMod + 1, -lfMod + 1, -lfMod - 1,
		2 * lfMod, -2 * lfMod, 3 * lfMod, 1_000_003 * lfMod,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		89482311, // what 0 reduces to
	}
	gen := rand.New(rand.NewSource(20211102))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newLazyRand(seed)
		for k := 1; k <= geStreamDraws; k++ {
			if w, g := want.Float64(), got.float64(); w != g {
				t.Fatalf("seed %d: draw %d = %v, math/rand gives %v", seed, k, g, w)
			}
		}
	}
}
