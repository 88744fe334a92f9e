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

// stateSeeds is the checkpointed state of accumulators folded over a
// faulted, an adversary, a cert + drift and an encrypted study, each
// also as it survives the post-crash corruptions the torture harness
// applies to checkpoint files.
func stateSeeds(tb testing.TB) [][]byte {
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

	dir := tb.TempDir()
	var seeds [][]byte
	for i, spec := range []study.Spec{faulted, adversary, signals, encrypted} {
		acc := NewAccumulator()
		for _, rec := range study.RunSharded(spec, study.EngineOptions{Workers: 1}).Records {
			acc.Fold(rec)
		}
		state, err := acc.MarshalState()
		if err != nil {
			tb.Fatal(err)
		}
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

// FuzzAccumulatorLoadState drives the analysis accumulator's checkpoint
// loader with arbitrary bytes. No input may panic it, and a state it
// accepts must survive a round trip: marshaled again, the bytes load
// to the same state.
func FuzzAccumulatorLoadState(f *testing.F) {
	for _, seed := range stateSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAccumulator()
		if err := a.LoadState(data); err != nil {
			return
		}
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
