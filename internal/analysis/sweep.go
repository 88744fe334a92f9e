package analysis

import (
	"errors"
	"fmt"
	"strings"

	"github.com/dnswatch/dnsloc/internal/study"
)

// Sweep runs the streamed study once per cell, in cell order, and
// returns each cell's merged accumulator. A sweep retains no records:
// every row of the resilience, adversary, and encryption sweeps is read
// off its cell's accumulator (ResilienceRow, AdversaryRow,
// EncryptionRow), so memory stays bounded by the accumulator however
// many probes or cells the sweep covers.
//
// opts applies to every cell; Sweep supplies the accumulators. A cell
// whose shards failed past their restarts fails the sweep rather than
// contributing partial counts.
func Sweep(cells []study.Spec, opts study.StreamOptions) ([]*Accumulator, error) {
	opts.NewAccumulator = func(int) study.Accumulator { return NewAccumulator() }
	accs := make([]*Accumulator, len(cells))
	for i, spec := range cells {
		res, err := study.RunStreamed(spec, opts)
		if err == nil && len(res.Errors) > 0 {
			err = errors.New(strings.Join(res.Errors, "; "))
		}
		if err != nil {
			return nil, fmt.Errorf("analysis: sweep cell %d: %w", i, err)
		}
		accs[i] = res.Acc.(*Accumulator)
	}
	return accs, nil
}
