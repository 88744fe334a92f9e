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

// RunSharded runs the study as RunStreamed does, over Workers shards,
// and keeps every record, in probe-ID order: RunStreamed with a
// record-keeping accumulator. It is the retaining form for tests and
// the benchmark's in-memory workload; pilotstudy streams.
//
// Every table and figure rendered from the records is byte-identical at
// any worker count, and identical to the serial Run. Per-response
// virtual-clock RTTs are the one field that may differ between worker
// counts: resolver cache warmth depends on which probes share a world,
// and no aggregate reads them.
func RunSharded(spec Spec, opts EngineOptions) *Results {
	res, err := RunStreamed(spec, StreamOptions{
		Workers:        opts.Workers,
		Progress:       opts.Progress,
		NewAccumulator: func(int) Accumulator { return &recordKeeper{} },
	})
	out := &Results{World: &World{Spec: spec}} // the merged view's world is just the spec
	if err != nil {
		out.Errors = []string{err.Error()}
		return out
	}
	keeper := res.Acc.(*recordKeeper)
	out.Errors, out.Metrics, out.Records = res.Errors, res.Metrics, keeper.recs
	sort.Slice(out.Records, func(i, j int) bool { return out.Records[i].Probe.ID < out.Records[j].Probe.ID })
	out.Metrics.Gauge("study.records_retained", metrics.Diagnostic).Observe(int64(keeper.largest))
	return out
}

// recordKeeper is RunSharded's Accumulator, and the one exception to
// the Fold contract: it retains every record. The merge target appends
// each shard's records and notes the largest shard's count.
type recordKeeper struct {
	recs    []*ProbeRecord
	largest int
}

func (a *recordKeeper) Fold(rec *ProbeRecord) { a.recs = append(a.recs, rec) }

func (a *recordKeeper) Merge(other Accumulator) error {
	o, ok := other.(*recordKeeper)
	if !ok {
		return fmt.Errorf("study: cannot merge %T into a record keeper", other)
	}
	a.recs = append(a.recs, o.recs...)
	a.largest = max(a.largest, len(o.recs))
	return nil
}

// errKeeperState: RunSharded sets no CheckpointDir, so a record keeper
// is never checkpointed.
var errKeeperState = errors.New("study: record keeper state is not checkpointable")

func (a *recordKeeper) MarshalState() ([]byte, error) { return nil, errKeeperState }
func (a *recordKeeper) LoadState([]byte) error        { return errKeeperState }
