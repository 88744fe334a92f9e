package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// foldedStates is the checkpointed state of accumulators folded over a
// clean, a faulted, an adversary, a cert + drift and an encrypted study.
func foldedStates(tb testing.TB) [][]byte {
	tb.Helper()
	base := study.PaperSpec().Scale(0.01)
	faulted := base
	fp := netsim.PresetFault(0.5, base.Seed+9000)
	faulted.Fault = &fp
	faulted.Retry = &core.RetryPolicy{MaxAttempts: 3}
	adversary := base
	adversary.Adversary = 2
	signals := base
	signals.CertCheck = true
	signals.DriftRounds = 1
	encrypted := base
	encrypted.Encryption = &study.Encryption{Adoption: 0.5, Transport: core.TransportDoTOpportunistic, Policy: dnsserver.EncTerminate}

	var states [][]byte
	for _, spec := range []study.Spec{base, faulted, adversary, signals, encrypted} {
		acc := NewAccumulator()
		for _, rec := range study.RunSharded(spec, study.EngineOptions{Workers: 1}).Records {
			acc.Fold(rec)
		}
		state, err := acc.MarshalState()
		if err != nil {
			tb.Fatal(err)
		}
		states = append(states, state)
	}
	return states
}

// stateSeeds is every folded state, also as it survives each of the
// post-crash corruptions the torture harness applies to checkpoint
// files, plus states the renderers could once not draw: a null Figure 3
// row, a row whose parts overflow the int range, and the largest
// counts a drawable state can hold.
func stateSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		[]byte(`{"resolvers":[{},{},{},{}],"orgs":{"1":null}}`),
		[]byte(`{"resolvers":[{},{},{},{}],"orgs":{"1":{"Transparent":9223372036854775807,"Modified":1}}}`),
		[]byte(`{"resolvers":[{},{},{},{}],"folded":9223372036854775807,` +
			`"orgs":{"1":{"Transparent":9223372036854775807,"Total":9223372036854775807},"2":{"Both":1,"Total":1}}}`),
	}
	dir := tb.TempDir()
	for i, state := range foldedStates(tb) {
		seeds = append(seeds, state)
		for j, corrupt := range []func(path string) error{
			func(p string) error { return faultfs.FlipBit(p, 3) },
			func(p string) error { return faultfs.FlipBit(p, uint64(len(state))*4) },
			func(p string) error { return faultfs.TruncateTail(p, 1) },
			func(p string) error { return faultfs.TruncateTail(p, len(state)/2) },
			func(p string) error { return faultfs.AppendGarbage(p, []byte("\x00garbage}")) },
		} {
			p := filepath.Join(dir, fmt.Sprintf("state-%d-%d.json", i, j))
			if err := os.WriteFile(p, state, 0o644); err != nil {
				tb.Fatal(err)
			}
			if err := corrupt(p); err != nil {
				tb.Fatal(err)
			}
			blob, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, blob)
		}
	}
	return seeds
}

// TestFoldedStatesLoad: a state marshaled from an accumulator folded
// over any kind of run loads back and draws. A loader bound that
// refused one would make a resumed shard restart from cursor 0.
func TestFoldedStatesLoad(t *testing.T) {
	for i, state := range foldedStates(t) {
		a := NewAccumulator()
		if err := a.LoadState(state); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		renderAll(a)
	}
}

// FuzzAccumulatorLoadState drives the analysis accumulator's checkpoint
// loader with arbitrary bytes. No input may panic it, a state it accepts
// must render every table, figure and sweep row, and it must survive a
// round trip: marshaled again, the bytes load to the same state.
func FuzzAccumulatorLoadState(f *testing.F) {
	for _, seed := range stateSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAccumulator()
		if err := a.LoadState(data); err != nil {
			return
		}
		renderAll(a)
		again, err := a.MarshalState()
		if err != nil {
			t.Fatalf("an accepted state does not marshal: %v", err)
		}
		b := NewAccumulator()
		if err := b.LoadState(again); err != nil {
			t.Fatalf("an accepted state, marshaled again, does not load: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("state changed across a marshal round trip:\nfirst:  %+v\nsecond: %+v", a, b)
		}
	})
}
