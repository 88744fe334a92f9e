package main

import (
	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// renderFunc renders a sweep's table from its cells' accumulators. Each
// sweep below returns its cell specs, for analysis.Sweep, and the
// renderFunc for them.
type renderFunc func([]*analysis.Accumulator) string

// resilienceSweep is -faults: verdict accuracy vs injected fault level,
// every level (the fault-free baseline included) with a 3-attempt retry
// policy.
func resilienceSweep(spec study.Spec) ([]study.Spec, renderFunc) {
	levels := []float64{0, 0.25, 0.5, 0.75, 1.0}
	spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	cells := make([]study.Spec, len(levels))
	for i, lvl := range levels {
		cells[i] = spec
		if lvl > 0 {
			fp := netsim.PresetFault(lvl, spec.Seed+9000)
			cells[i].Fault = &fp
		}
	}
	return cells, func(accs []*analysis.Accumulator) string {
		rows := make([]analysis.ResilienceRow, len(accs))
		for i, acc := range accs {
			rows[i] = acc.ResilienceRow(levels[i])
		}
		return analysis.FormatResilience(rows)
	}
}

// adversarySweep is -adversary: detection accuracy vs interceptor
// evasion level. Every level enables the certificate oracle and one
// drift re-probe round (see analysis.Accumulator.AdversaryRow).
func adversarySweep(spec study.Spec) ([]study.Spec, renderFunc) {
	levels := []int{0, 1, 2, 3, 4}
	spec.CertCheck = true
	spec.DriftRounds = 1
	cells := make([]study.Spec, len(levels))
	for i, lvl := range levels {
		cells[i] = spec
		cells[i].Adversary = lvl
	}
	return cells, func(accs []*analysis.Accumulator) string {
		rows := make([]analysis.AdversaryRow, len(accs))
		for i, acc := range accs {
			rows[i] = acc.AdversaryRow(levels[i])
		}
		return analysis.FormatAdversary(rows)
	}
}

// encryptionSweep is -encryption: one cell per (policy, transport,
// adoption). Adoption zero is the Do53 baseline, measured per policy
// so each policy block carries its own reference row. With faulted,
// every cell runs through a mid-level fault plane with the resilience
// sweep's retry budget.
func encryptionSweep(spec study.Spec, faulted bool) ([]study.Spec, renderFunc) {
	if faulted {
		fp := netsim.PresetFault(0.5, spec.Seed+9000)
		spec.Fault = &fp
		spec.Retry = &core.RetryPolicy{MaxAttempts: 3}
	}
	var grid []study.Encryption
	for _, pol := range []dnsserver.EncryptedPolicy{dnsserver.EncPass, dnsserver.EncBlock, dnsserver.EncTerminate} {
		for _, tr := range []core.TransportMode{core.TransportDoTOpportunistic, core.TransportDoTStrict, core.TransportDoH} {
			for _, ad := range []float64{0, 0.5, 1.0} {
				grid = append(grid, study.Encryption{Adoption: ad, Transport: tr, Policy: pol})
			}
		}
	}
	cells := make([]study.Spec, len(grid))
	for i := range grid {
		cells[i] = spec
		cells[i].Encryption = &grid[i]
	}
	return cells, func(accs []*analysis.Accumulator) string {
		rows := make([]analysis.EncryptionRow, len(accs))
		for i, acc := range accs {
			rows[i] = acc.EncryptionRow(grid[i])
		}
		return analysis.FormatEncryption(rows)
	}
}
