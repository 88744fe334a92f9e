package study

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/dnswatch/dnsloc/internal/metrics"
)

// EngineOptions configure a sharded study run.
type EngineOptions struct {
	// Workers is the shard count; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one call per completed shard.
	// Calls are serialized but arrive in completion order, not shard
	// order.
	Progress func(shard, workers, probes int, elapsed time.Duration)
}

// RunSharded executes the pilot study across Workers independent shards,
// each owning a round-robin slice of the probe fleet, and keeps every
// record. It is RunStreamed with a record-keeping accumulator: shards
// fan out, are supervised, and merge their registries exactly as a
// streamed run's do, and the kept records are reassembled in probe-ID
// order afterwards.
//
// Determinism contract: every shard builds its own world replica from
// Spec.Shard(k, K) — the same quotas, seat dealing, and RNG streams as
// the unsharded build, with only its own probes' homes instantiated —
// and replays the full platform availability stream before measuring, so
// no RNG call ever crosses a goroutine. Every table and figure rendered
// from the merged results is therefore byte-identical at any worker
// count, and identical to the serial Run. (Per-response virtual-clock
// RTTs are the one field that may differ between worker counts:
// resolver cache warmth depends on which probes share a world. No
// aggregate consumes RTTs — the metrics plane quarantines them as
// Diagnostic, outside the deterministic snapshot.)
func RunSharded(spec Spec, opts EngineOptions) *Results {
	res, err := RunStreamed(spec, StreamOptions{
		Workers:        opts.Workers,
		Progress:       opts.Progress,
		NewAccumulator: func(int) Accumulator { return &recordKeeper{} },
	})
	// The merged view carries the unsharded spec for exports; per-record
	// simulation state lives on each record's Net.
	out := &Results{World: &World{Spec: spec}}
	if err != nil {
		out.Errors = []string{err.Error()}
		return out
	}
	out.Errors, out.Metrics = res.Errors, res.Metrics

	shards := res.Acc.(*recordKeeper).shards
	total, largest := 0, 0
	for _, recs := range shards {
		total += len(recs)
		largest = max(largest, len(recs))
	}
	out.Records = make([]*ProbeRecord, 0, total)
	for _, recs := range shards {
		out.Records = append(out.Records, recs...)
	}
	sort.Slice(out.Records, func(i, j int) bool { return out.Records[i].Probe.ID < out.Records[j].Probe.ID })
	out.Metrics.Gauge("study.records_retained", metrics.Diagnostic).Observe(int64(largest))
	return out
}

// recordKeeper is RunSharded's Accumulator, and the one exception to
// the Fold contract: it retains every record. A shard's keeper folds
// into recs; the merge target collects the shard slices in shard order,
// leaving the concatenation to RunSharded, which sizes it once.
type recordKeeper struct {
	recs   []*ProbeRecord
	shards [][]*ProbeRecord
}

func (a *recordKeeper) Fold(rec *ProbeRecord) { a.recs = append(a.recs, rec) }

func (a *recordKeeper) Merge(other Accumulator) error {
	o, ok := other.(*recordKeeper)
	if !ok {
		return fmt.Errorf("study: cannot merge %T into a record keeper", other)
	}
	a.shards = append(a.shards, o.recs)
	return nil
}

// errKeeperState: RunSharded sets no CheckpointDir, so a record keeper
// is never checkpointed.
var errKeeperState = errors.New("study: record keeper state is not checkpointable")

func (a *recordKeeper) MarshalState() ([]byte, error) { return nil, errKeeperState }
func (a *recordKeeper) LoadState([]byte) error        { return errKeeperState }
