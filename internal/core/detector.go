package core

import (
	"errors"
	"net/netip"
	"sync"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Detector runs the three-step localization technique of Figure 2.
type Detector struct {
	// Client is the query transport.
	Client Client

	// CPEPublicV4 is the probe's public IPv4 address — the CPE WAN
	// address. RIPE Atlas publishes it as probe metadata; on a live
	// network the operator supplies it. When zero, step 2 cannot test
	// the CPE and an intercepted probe can at best be localized to the
	// ISP.
	CPEPublicV4 netip.Addr

	// Resolvers selects the operators to test; nil means all four.
	Resolvers []publicdns.ID

	// QueryV6 also tests each operator's IPv6 addresses.
	QueryV6 bool

	// BogonV4/BogonV6 are the unroutable destinations for step 3;
	// zero values use the package defaults.
	BogonV4 netip.Addr
	BogonV6 netip.Addr

	// CanaryName is the measurement-controlled domain asked in bogon
	// queries; empty uses publicdns.CanaryDomain.
	CanaryName dnswire.Name

	// SkipTransparency disables the whoami check (§4.1.2).
	SkipTransparency bool

	// Retries re-sends a query after a transient failure. Zero means
	// one attempt; on lossy real networks 1-2 retries avoid misreading
	// packet loss. (Timeouts are never evidence of interception either
	// way.) Kept for compatibility — Retry supersedes it when set.
	Retries int

	// Retry, when non-nil, replaces Retries with a full policy:
	// attempt cap, per-attempt timeout, exponential backoff with
	// deterministic jitter. Transient errors (timeout, garbage,
	// refused) consume attempts; permanent ones (ErrNoRoute) fail the
	// query immediately.
	Retry *RetryPolicy

	// Parallel issues the step-1 location queries concurrently — on a
	// live network with multi-second timeouts this cuts a full run from
	// ~minutes to ~seconds. Use it only with concurrency-safe transports
	// (the UDP/TCP clients are; SimClient is not).
	Parallel bool

	// Metrics, when non-nil, receives every query's counters in the
	// shared registry handles (see MetricSet). The per-report tally in
	// Report.Metrics is recorded regardless.
	Metrics *MetricSet

	// CertOracle, when non-nil, enables the certificate-consistency
	// signal: each round-1 location answer is compared against the
	// identity the operator presents over an authenticated out-of-band
	// channel (see signals.go).
	CertOracle CertOracle

	// DriftRounds, when positive, enables the longitudinal drift signal:
	// the location enumeration is re-issued that many extra times and
	// per-server answer sets are compared across rounds.
	DriftRounds int

	idMu   sync.Mutex
	nextID uint16

	// qbuf holds the packed query of the exchange in progress unless
	// the detector is Parallel, which runs several at once. Every query
	// of the default plan fits.
	qbuf [64]byte

	// metMu guards runMetrics, the Report.Metrics of the Run in
	// progress; Parallel mode updates it from several goroutines.
	metMu      sync.Mutex
	runMetrics *Metrics
}

// resolvers returns the operator set under test.
func (d *Detector) resolvers() []publicdns.ID {
	if len(d.Resolvers) > 0 {
		return d.Resolvers
	}
	return publicdns.All
}

// id hands out query IDs (safe under Parallel).
func (d *Detector) id() uint16 {
	d.idMu.Lock()
	defer d.idMu.Unlock()
	d.nextID++
	return d.nextID
}

// Run executes the full technique and returns the report.
func (d *Detector) Run() *Report {
	r := &Report{Verdict: VerdictNotIntercepted, Transparency: TransparencyNA}
	d.metMu.Lock()
	d.runMetrics = &r.Metrics
	d.metMu.Unlock()
	defer func() {
		d.metMu.Lock()
		d.runMetrics = nil
		d.metMu.Unlock()
	}()

	p := d.plan()
	d.stepLocation(r, p)
	// The counter-signals run before the interception gate: their whole
	// point is to catch what an evasive interceptor hides from step 1
	// (see signals.go). They detect; they do not localize — the CPE/ISP
	// steps below stay driven by the CHAOS evidence.
	if d.DriftRounds > 0 {
		d.stepDrift(r, p)
	}
	if d.CertOracle != nil {
		d.stepCertCheck(r)
	}
	if d.DriftRounds > 0 || d.CertOracle != nil {
		d.fuseSignals(r)
	}
	if !r.Intercepted() {
		return r
	}
	r.Verdict = VerdictUnknown

	if !d.SkipTransparency {
		d.stepTransparency(r, p)
	}

	if d.stepCPE(r, p) {
		r.Verdict = VerdictCPE
		return r
	}
	if d.stepISP(r, p) {
		r.Verdict = VerdictISP
	}
	return r
}

// policy resolves the effective retry policy, honouring the legacy
// Retries field when no full policy is installed.
func (d *Detector) policy() RetryPolicy {
	if d.Retry != nil {
		return *d.Retry
	}
	return RetryPolicy{MaxAttempts: d.Retries + 1}
}

// exchangeOne sends a query, reduces the result to a ProbeResult, and
// feeds the metrics plane (both the in-progress Report.Metrics tally
// and, when wired, the shared MetricSet).
func (d *Detector) exchangeOne(id publicdns.ID, server netip.AddrPort, q *planQuery) ProbeResult {
	pr, backoff, transient, permanent := d.exchange(id, server, q)
	d.Metrics.note(&pr, backoff, transient, permanent)
	d.metMu.Lock()
	if d.runMetrics != nil {
		d.runMetrics.add(&pr, backoff, transient, permanent)
	}
	d.metMu.Unlock()
	return pr
}

// exchange sends a query under the next query ID and reduces the result
// to a ProbeResult. The answer is the first response's joined TXT, or
// else its first address (see Reply). Transient transport errors
// consume retry attempts under the policy; permanent ones (no route)
// fail the query on the spot. Alongside the result it returns the total
// backoff slept and the per-attempt failure classification tallies.
func (d *Detector) exchange(id publicdns.ID, server netip.AddrPort, q *planQuery) (_ ProbeResult, backoff time.Duration, transient, permanent int) {
	family := V4
	if server.Addr().Is6() && !server.Addr().Is4In6() {
		family = V6
	}
	pr := ProbeResult{Resolver: id, Server: server, Family: family}
	pol := d.policy()
	maxAttempts := pol.Attempts()
	qid := d.id()
	salt := QuerySalt(server, qid)
	// Every attempt sends the same query: wire bytes to a
	// ReplyExchanger, a Message to any other client.
	var wire []byte
	var msg *dnswire.Message
	if _, ok := d.Client.(ReplyExchanger); !ok {
		msg = q.message(qid)
	} else if q.err == nil {
		buf := d.qbuf[:0]
		if d.Parallel {
			buf = nil // several exchanges are in progress at once
		}
		wire = q.appendWire(buf, qid)
	}
	var rep Reply
	var err error
	for attempt := 1; ; attempt++ {
		rep, err = d.reply(server, q, wire, msg)
		pr.Attempts = attempt
		if err != nil {
			if Classify(err) == ClassPermanent {
				permanent++
			} else {
				transient++
			}
		}
		if err == nil || Classify(err) == ClassPermanent || attempt >= maxAttempts {
			break
		}
		if delay := pol.BackoffFor(attempt, salt); delay > 0 {
			backoff += delay
			time.Sleep(delay)
		}
	}
	switch {
	case errors.Is(err, ErrTimeout):
		pr.Outcome = OutcomeTimeout
		return pr, backoff, transient, permanent
	case errors.Is(err, ErrGarbage):
		pr.Outcome = OutcomeGarbage
		return pr, backoff, transient, permanent
	case errors.Is(err, ErrNoRoute):
		pr.Outcome = OutcomeNoRoute
		return pr, backoff, transient, permanent
	case errors.Is(err, ErrAuthFailed):
		pr.Outcome = OutcomeAuthFail
		return pr, backoff, transient, permanent
	case err != nil:
		// An unclassified transport failure exhausted its retries;
		// conservatively the same non-evidence as a timeout.
		pr.Outcome = OutcomeTimeout
		return pr, backoff, transient, permanent
	}
	// Replication: prior work observed the interceptor's answer arriving
	// first; either way interception and replication are
	// indistinguishable here (§3.1), so the reply is the first response.
	pr.Replicated = rep.Count > 1
	pr.RCode = rep.RCode
	pr.RTT = rep.RTT
	if rep.RCode == dnswire.RCodeSuccess && rep.Answered {
		pr.Outcome = OutcomeAnswer
		pr.Answer = rep.Answer
	} else {
		// An error rcode, or NOERROR with no usable records.
		pr.Outcome = OutcomeError
	}
	return pr, backoff, transient, permanent
}

// reply sends one attempt of q through the richest interface the
// client implements: as wire to a ReplyExchanger, as msg otherwise. A
// client that reports success without a response has sent nothing the
// detector can read: that is ErrGarbage.
func (d *Detector) reply(server netip.AddrPort, q *planQuery, wire []byte, msg *dnswire.Message) (Reply, error) {
	var rep Reply
	var err error
	switch c := d.Client.(type) {
	case ReplyExchanger:
		if q.err != nil {
			return Reply{}, q.err
		}
		rep, err = c.ExchangeReply(server, wire)
	case RTTExchanger:
		var resps []*dnswire.Message
		var rtt time.Duration
		resps, rtt, err = c.ExchangeRTT(server, msg)
		rep = ReplyOf(resps, rtt)
	default:
		var resps []*dnswire.Message
		resps, err = d.Client.Exchange(server, msg)
		rep = ReplyOf(resps, 0)
	}
	if err == nil && rep.Count == 0 {
		return Reply{}, ErrGarbage
	}
	return rep, err
}

// locate sends one location query and checks its answer against the
// operator's standard format.
func (d *Detector) locate(t *locationTarget) ProbeResult {
	pr := d.exchangeOne(t.op.ID, t.server, t.query)
	if pr.Outcome == OutcomeAnswer {
		pr.Standard = t.op.ValidateLocationAnswer(pr.Answer)
	}
	return pr
}

// stepLocation issues location queries to every address of every
// operator (§3.1) and classifies each answer against the operator's
// standard format.
func (d *Detector) stepLocation(r *Report, p *queryPlan) {
	results := make([]ProbeResult, len(p.location))
	if d.Parallel {
		var wg sync.WaitGroup
		for i := range p.location {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = d.locate(&p.location[i])
			}(i)
		}
		wg.Wait()
	} else {
		for i := range p.location {
			results[i] = d.locate(&p.location[i])
		}
	}

	noteFaults(r, StepLocation, results)
	d.Metrics.noteStep(StepLocation, results)
	if r.Location == nil && len(results) > 0 {
		r.Location = results
	} else {
		r.Location = append(r.Location, results...)
	}
	intercepted := map[publicdns.ID]map[Family]bool{}
	for _, pr := range results {
		// Timeouts (and garbled responses) are conservatively not
		// interception (§3.1); any response that fails validation is.
		nonStandard := (pr.Outcome == OutcomeAnswer && !pr.Standard) || pr.Outcome == OutcomeError
		if nonStandard {
			if intercepted[pr.Resolver] == nil {
				intercepted[pr.Resolver] = map[Family]bool{}
			}
			intercepted[pr.Resolver][pr.Family] = true
		}
	}
	for _, id := range d.resolvers() {
		if intercepted[id][V4] {
			r.InterceptedV4 = append(r.InterceptedV4, id)
		}
		if intercepted[id][V6] {
			r.InterceptedV6 = append(r.InterceptedV6, id)
		}
	}
}

// stepCPE decides whether the CPE is the interceptor (§3.2): a
// version.bind query to the CPE's public address must return the same
// string as version.bind queries sent towards the intercepted public
// resolvers. The string's uniqueness is what makes the comparison sound
// (Appendix A); error rcodes carry no identity, so they never match.
func (d *Detector) stepCPE(r *Report, p *queryPlan) bool {
	if !d.CPEPublicV4.IsValid() || len(r.InterceptedV4) == 0 {
		return false
	}
	r.CPEVersionBind = d.exchangeOne("", netip.AddrPortFrom(d.CPEPublicV4, 53), p.versionBind)
	// Without a string from the CPE nothing can implicate it; the
	// resolver-side strings are still collected for the report.
	all := r.CPEVersionBind.Outcome == OutcomeAnswer && r.CPEVersionBind.Answer != ""
	for _, id := range r.InterceptedV4 {
		cfg := publicdns.Lookup(id)
		pr := d.exchangeOne(id, netip.AddrPortFrom(cfg.V4[0], 53), p.versionBind)
		r.ResolverVersionBind = append(r.ResolverVersionBind, pr)
		if pr.Outcome != OutcomeAnswer || pr.Answer != r.CPEVersionBind.Answer {
			all = false
		}
	}
	prs := append([]ProbeResult{r.CPEVersionBind}, r.ResolverVersionBind...)
	noteFaults(r, StepCPE, prs)
	d.Metrics.noteStep(StepCPE, prs)
	if all {
		r.CPEString = r.CPEVersionBind.Answer
	}
	return all
}

// stepISP decides whether interception happens inside the AS (§3.3):
// a query addressed to an unroutable (bogon) destination cannot leave
// the AS, so any response proves an in-AS interceptor. Silence proves
// nothing — the interceptor may be beyond the AS, or may ignore
// bogon-addressed packets.
func (d *Detector) stepISP(r *Report, p *queryPlan) bool {
	answered := false
	pr := d.exchangeOne("", p.bogonV4, p.bogonA)
	r.BogonResults = append(r.BogonResults, pr)
	if pr.Outcome == OutcomeAnswer || pr.Outcome == OutcomeError {
		answered = true
	}

	if d.QueryV6 && len(r.InterceptedV6) > 0 {
		pr6 := d.exchangeOne("", p.bogonV6, p.bogonAAAA)
		r.BogonResults = append(r.BogonResults, pr6)
		if pr6.Outcome == OutcomeAnswer || pr6.Outcome == OutcomeError {
			answered = true
		}
	}
	d.Metrics.noteStep(StepISP, r.BogonResults)
	return answered
}

// stepTransparency resolves the whoami domain via every intercepted
// resolver (§4.1.2): a clean answer whose address is outside the target
// operator's egress confirms transparent interception; a DNS error
// status means the alternate resolver blocks rather than resolves.
func (d *Detector) stepTransparency(r *Report, p *queryPlan) {
	transparent, modified := 0, 0
	for _, id := range r.InterceptedSet() {
		cfg := publicdns.Lookup(id)
		pr := d.exchangeOne(id, netip.AddrPortFrom(cfg.V4[0], 53), p.whoami)
		switch pr.Outcome {
		case OutcomeAnswer:
			transparent++
			// §4.1.2(a): the whoami answer reveals the answering
			// resolver's egress. An address inside the target operator's
			// egress space would mean the operator itself resolved it;
			// Standard records that second confirmation signal.
			if a, err := netip.ParseAddr(pr.Answer); err == nil {
				pr.Standard = cfg.InEgress(a)
			}
		case OutcomeError:
			modified++
		}
		r.Whoami = append(r.Whoami, pr)
	}
	noteFaults(r, StepTransparency, r.Whoami)
	d.Metrics.noteStep(StepTransparency, r.Whoami)
	switch {
	case transparent > 0 && modified > 0:
		r.Transparency = TransparencyBoth
	case modified > 0:
		r.Transparency = StatusModified
	case transparent > 0:
		r.Transparency = Transparent
	default:
		r.Transparency = TransparencyNA
	}
}

// noteFaults aggregates fault-shaped outcomes (timeouts and garbage)
// across a step's probe results into a StepFault record. Steps that saw
// no faults leave nothing behind, so a clean run's report is unchanged.
// The ISP step never calls this: bogon silence is an expected,
// informative outcome there (§3.3), not degradation.
func noteFaults(r *Report, step string, prs []ProbeResult) {
	f := StepFault{Step: step}
	for _, pr := range prs {
		f.Queries++
		f.Attempts += pr.Attempts
		switch pr.Outcome {
		case OutcomeTimeout:
			f.Timeouts++
		case OutcomeGarbage:
			f.Garbage++
		}
	}
	if f.Queries == 0 || f.Timeouts+f.Garbage == 0 {
		return
	}
	f.Inconclusive = f.Timeouts+f.Garbage == f.Queries
	r.Faults = append(r.Faults, f)
}

// CPETestWithARecord is the counterfactual of Appendix A: testing the
// CPE with an ordinary A-record query instead of version.bind. It
// returns true when the A answers from the CPE's public address and
// from the intercepted resolvers are identical — which misclassifies an
// open-forwarder CPE as an interceptor, because everyone ultimately
// returns the same A record. It exists for the ablation benchmark.
func (d *Detector) CPETestWithARecord(name dnswire.Name, intercepted []publicdns.ID) bool {
	if !d.CPEPublicV4.IsValid() || len(intercepted) == 0 {
		return false
	}
	q := compileQuery(dnswire.Query{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, RD: true})
	ask := func(server netip.Addr) (string, bool) {
		pr := d.exchangeOne("", netip.AddrPortFrom(server, 53), q)
		return pr.Answer, pr.Outcome == OutcomeAnswer
	}
	cpeAns, ok := ask(d.CPEPublicV4)
	if !ok {
		return false
	}
	for _, id := range intercepted {
		ans, ok := ask(publicdns.Lookup(id).V4[0])
		if !ok || ans != cpeAns {
			return false
		}
	}
	return true
}
