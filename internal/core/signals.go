package core

import (
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// This file adds the two counter-signals the CHAOS technique lacks
// against evasive interceptors, and the fusion rule that combines all
// three into one per-(resolver, family) detection verdict:
//
//   - a CERTainty-style certificate-consistency oracle (Tsai et al.):
//     the operator's identity fetched over an authenticated out-of-band
//     channel is compared against the UDP location answer — a replayed
//     or forged persona that disagrees with the certificate-anchored
//     identity exposes the interceptor;
//   - a Whac-A-Mole-style longitudinal re-probe (Wei & Heidemann):
//     the location enumeration re-issued over further rounds, flagging
//     answer-set drift — forgeries drawn per query vary between rounds
//     while genuine anycast sites answer identically.
//
// Both are detection signals only: they say *that* interception
// happens, not *where*. Localization (Figure 2's CPE/ISP steps) stays
// driven by the CHAOS evidence.

// SignalVerdict is one signal's three-state conclusion for one
// (resolver, family) experiment. The third state matters: a signal
// that measured nothing (timeouts, no oracle for this operator, too
// few answers to compare) must weigh as absence, never as evidence —
// the same conservative rule the CHAOS step applies to timeouts.
type SignalVerdict string

// Signal verdicts.
const (
	// SignalClear: the signal measured and found nothing wrong.
	SignalClear SignalVerdict = "clear"
	// SignalFlagged: the signal found positive evidence of interception.
	SignalFlagged SignalVerdict = "flagged"
	// SignalInconclusive: the signal could not measure.
	SignalInconclusive SignalVerdict = "inconclusive"
)

// FuseSignals combines the three signals' verdicts for one
// (resolver, family) experiment. The rule is evidence-dominant and
// conservative, in that order:
//
//   - any flagged signal flags the fusion — one positive signal is
//     evidence regardless of what the others failed to see (they guard
//     different evasions, so disagreement is expected, not suspicious);
//   - otherwise any inconclusive signal leaves the fusion inconclusive
//     — a clean bill requires every signal that ran to have measured;
//   - otherwise the fusion is clear.
//
// Only a flagged fusion contributes to FusedInterceptedV4/V6; an
// inconclusive fusion is treated as not-intercepted (degraded paths
// must never manufacture false positives).
func FuseSignals(chaos, cert, drift SignalVerdict) SignalVerdict {
	for _, s := range [...]SignalVerdict{chaos, cert, drift} {
		if s == SignalFlagged {
			return SignalFlagged
		}
	}
	for _, s := range [...]SignalVerdict{chaos, cert, drift} {
		if s == SignalInconclusive {
			return SignalInconclusive
		}
	}
	return SignalClear
}

// CertOracle is the out-of-band certificate-consistency anchor: it
// returns the identity the operator's site presents over an
// authenticated channel (a strict-profile DoT session: a certificate
// that passes netsim.StreamCert.AuthenticatesStrict for the target
// address cannot terminate at an interceptor). ok is false when the operator exposes
// no identity that way; the signal is then inconclusive for it.
type CertOracle interface {
	Identity(id publicdns.ID, server netip.Addr) (identity string, ok bool)
}

// CertCheck is one certificate-consistency comparison: the round-1 UDP
// location answer for one server against the oracle's identity.
type CertCheck struct {
	Resolver publicdns.ID
	Family   Family
	Server   netip.AddrPort
	// UDPAnswer is the in-band location answer compared (empty when the
	// UDP query produced no answer to compare).
	UDPAnswer string
	// OracleIdentity is the authenticated out-of-band identity (empty
	// when the oracle has none for this operator).
	OracleIdentity string
	State          SignalVerdict
}

// SignalFusion is the per-(resolver, family) record of the three
// signals and their fused verdict.
type SignalFusion struct {
	Resolver publicdns.ID
	Family   Family
	Chaos    SignalVerdict
	Cert     SignalVerdict
	Drift    SignalVerdict
	Fused    SignalVerdict
}

// stepCertCheck compares each round-1 location answer against the
// oracle's authenticated identity. No packets are sent: the oracle is
// out-of-band by construction (port-53 DNAT never touches it).
func (d *Detector) stepCertCheck(r *Report) {
	for _, pr := range r.Location {
		check := CertCheck{Resolver: pr.Resolver, Family: pr.Family, Server: pr.Server}
		identity, ok := d.CertOracle.Identity(pr.Resolver, pr.Server.Addr())
		check.OracleIdentity = identity
		switch {
		case !ok:
			check.State = SignalInconclusive
		case pr.Outcome != OutcomeAnswer:
			// Nothing in-band to compare — dropped or errored UDP answers
			// are the CHAOS signal's evidence, not this one's.
			check.State = SignalInconclusive
		case pr.Answer == identity:
			check.UDPAnswer = pr.Answer
			check.State = SignalClear
		default:
			check.UDPAnswer = pr.Answer
			check.State = SignalFlagged
		}
		r.CertChecks = append(r.CertChecks, check)
	}
}

// stepDrift re-issues the step-1 location enumeration DriftRounds more
// times. Each round draws fresh query IDs, which is precisely what
// per-query forgeries cannot survive: their answers drift while
// genuine anycast sites (and faithful replayers) answer identically.
func (d *Detector) stepDrift(r *Report, p *queryPlan) {
	for round := 0; round < d.DriftRounds; round++ {
		for i := range p.location {
			r.DriftProbes = append(r.DriftProbes, d.locate(&p.location[i]))
		}
	}
	noteFaults(r, StepDrift, r.DriftProbes)
	d.Metrics.noteStep(StepDrift, r.DriftProbes)
}

// fuseSignals reduces the three signals to per-(resolver, family)
// verdicts and fills the report's fused intercepted sets.
func (d *Detector) fuseSignals(r *Report) {
	r.SignalsFused = true
	families := []Family{V4}
	if d.QueryV6 {
		families = append(families, V6)
	}
	for _, id := range d.resolvers() {
		for _, fam := range families {
			f := SignalFusion{
				Resolver: id,
				Family:   fam,
				Chaos:    d.chaosSignal(r, id, fam),
				Cert:     d.certSignal(r, id, fam),
				Drift:    d.driftSignal(r, id, fam),
			}
			f.Fused = FuseSignals(f.Chaos, f.Cert, f.Drift)
			r.Signals = append(r.Signals, f)
			if f.Fused == SignalFlagged {
				if fam == V4 {
					r.FusedInterceptedV4 = append(r.FusedInterceptedV4, id)
				} else {
					r.FusedInterceptedV6 = append(r.FusedInterceptedV6, id)
				}
			}
		}
	}
}

// chaosSignal reads the step-1 verdict back as a three-state signal:
// flagged when the resolver is in the intercepted set, inconclusive
// when every location query was fault-shaped (the step measured
// nothing for this experiment), clear otherwise.
func (d *Detector) chaosSignal(r *Report, id publicdns.ID, fam Family) SignalVerdict {
	set := r.InterceptedV4
	if fam == V6 {
		set = r.InterceptedV6
	}
	for _, got := range set {
		if got == id {
			return SignalFlagged
		}
	}
	measured := false
	seen := false
	for _, pr := range r.Location {
		if pr.Resolver != id || pr.Family != fam {
			continue
		}
		seen = true
		if pr.Outcome == OutcomeAnswer || pr.Outcome == OutcomeError {
			measured = true
		}
	}
	if !seen || !measured {
		return SignalInconclusive
	}
	return SignalClear
}

// certSignal folds the (resolver, family) cert checks: any mismatch
// flags; else any successful comparison clears; else inconclusive.
func (d *Detector) certSignal(r *Report, id publicdns.ID, fam Family) SignalVerdict {
	verdict := SignalInconclusive
	for _, c := range r.CertChecks {
		if c.Resolver != id || c.Family != fam {
			continue
		}
		if c.State == SignalFlagged {
			return SignalFlagged
		}
		if c.State == SignalClear {
			verdict = SignalClear
		}
	}
	return verdict
}

// driftSignal compares answer strings per server across all rounds
// (round 1 is the Location step itself). A server answering two
// distinct strings flags drift. Only OutcomeAnswer observations count:
// a timeout or garbled round is the fault plane's business, never
// drift evidence. Clear requires at least one server observed answering
// in two or more rounds — otherwise there was nothing to compare.
func (d *Detector) driftSignal(r *Report, id publicdns.ID, fam Family) SignalVerdict {
	type obs struct {
		count    int
		first    string
		distinct bool
	}
	servers := map[netip.AddrPort]*obs{}
	note := func(pr ProbeResult) {
		if pr.Resolver != id || pr.Family != fam || pr.Outcome != OutcomeAnswer {
			return
		}
		o := servers[pr.Server]
		if o == nil {
			o = &obs{first: pr.Answer}
			servers[pr.Server] = o
		}
		o.count++
		if pr.Answer != o.first {
			o.distinct = true
		}
	}
	for _, pr := range r.Location {
		note(pr)
	}
	for _, pr := range r.DriftProbes {
		note(pr)
	}
	compared := false
	for _, o := range servers {
		if o.distinct {
			return SignalFlagged
		}
		if o.count >= 2 {
			compared = true
		}
	}
	if !compared {
		return SignalInconclusive
	}
	return SignalClear
}
