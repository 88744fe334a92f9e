package dnsserver

import (
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// RecursiveResolver is a caching iterative resolver: the engine behind
// ISP resolvers and the recursion layer of public resolvers in the
// simulated world. It resolves names by walking the delegation tree from
// the root hints, exactly as unbound or BIND would, implemented as an
// asynchronous state machine over netsim datagrams.
type RecursiveResolver struct {
	// Persona answers CHAOS debugging queries at the front door.
	Persona ChaosPersona

	// Egress is the source address for upstream queries — the address
	// authoritative servers (and therefore whoami-style zones) see.
	Egress netip.Addr
	// Egress6 is the IPv6 egress, used when querying v6-only servers.
	Egress6 netip.Addr

	// RootHints are the root server addresses.
	RootHints []netip.Addr

	// Hook, if non-nil, gets first crack at every INET query before
	// recursion. Public resolvers use it for names they answer at the
	// front door, like o-o.myaddr.l.google.com and debug.opendns.com.
	// It returns the answer as data: one TXT record per string, each
	// holding that one string (see dnswire.View.AppendTXTResponse).
	// Returning nil passes the query on. The view is passed by value, so
	// that calling through the func value does not move the caller's
	// view to the heap.
	Hook func(query dnswire.View, src netip.AddrPort) []string

	// RefuseAll, when nonzero, makes the resolver answer every INET query
	// with this rcode — the "status modified" alternate resolvers of
	// §4.1.2 that block queries rather than resolve them.
	RefuseAll dnswire.RCode

	// Blocklist maps canonical names to the rcode the resolver answers
	// with instead of resolving — per-domain filtering. Keys must be
	// canonical, so that at most one matches a query.
	Blocklist map[dnswire.Name]dnswire.RCode

	// MaxReferrals bounds delegation-following per query.
	MaxReferrals int

	// NXDomainWildcard, when valid, replaces NXDOMAIN results for A
	// queries with an A record pointing at this address — the
	// "NXDOMAIN wildcarding" monetization prior work documented
	// (Kreibich et al., Weaver et al.; §2 and §7 of the paper). It is a
	// form of DNS *redirection*, distinct from the interception this
	// repository localizes, and internal/redirect detects it.
	NXDomainWildcard netip.Addr

	// Adversary, when non-nil and active, evades CHAOS fingerprinting on
	// flows diverted to this resolver instead of answering honestly.
	Adversary *Adversary

	// DNSSECAware makes the resolver request and return DNSSEC records
	// (RRSIGs) when the client sets the DO bit. Oblivious resolvers —
	// common on alternate-resolver paths — silently strip them, which is
	// how interception "interferes with the correct operation of
	// DNSSEC" (§1 of the paper): a validating stub behind such an
	// interceptor can no longer build a chain of trust.
	DNSSECAware bool

	// cache and pending are made on first use: many resolvers of a
	// world, every refusing one among them, never resolve anything.
	cache    map[cacheKey]cacheEntry
	pending  map[uint16]*job
	nextPort uint16
	nextID   uint16

	// free holds finished jobs for reuse, with their slices' storage.
	// dropIdle is r.dropPending, made once: the network calls it when a
	// drain in which r opened a job ends (see dropPending), and idleArmed
	// records that it is registered for the drain under way.
	free      []*job
	dropIdle  func()
	idleArmed bool
	// lastName is the question name last asked at the front door,
	// reused while the next question spells it the same.
	lastName dnswire.Name
}

type cacheKey struct {
	name  dnswire.Name
	typ   dnswire.Type
	class dnswire.Class
}

type cacheEntry struct {
	rcode   dnswire.RCode
	answers []dnswire.Record
	sigs    []dnswire.Record
	// expires is the virtual time the entry dies (min TTL of the set).
	expires time.Duration
}

// job is one in-flight client resolution. The client query is kept as
// its view over the received bytes: the query's sender (the exchange's
// initiator) recycles them only after the drain ends, and a job never
// outlives its drain.
type job struct {
	clientPkt  netsim.Packet
	query      dnswire.View
	q          dnswire.Question
	router     *netsim.Router // where port is bound
	servers    []netip.Addr
	serverIdx  int
	referrals  int
	cnameChain []dnswire.Record
	cnameDepth int
	port       uint16
	sent       []byte // the upstream query in flight, recycled on its answer
	wantDNSSEC bool
	sigs       []dnswire.Record
	glue       []netip.Addr // the last referral's glue, servers' storage
}

// NewRecursiveResolver builds a resolver with the given egress address
// and root hints.
func NewRecursiveResolver(egress netip.Addr, rootHints ...netip.Addr) *RecursiveResolver {
	return &RecursiveResolver{
		Egress:       egress,
		RootHints:    rootHints,
		MaxReferrals: 16,
		nextPort:     10000,
		nextID:       1,
	}
}

// FlushCache empties the resolver cache.
func (r *RecursiveResolver) FlushCache() { clear(r.cache) }

// ServeUDP implements netsim.Service: port 53 receives client queries;
// ephemeral ports receive upstream responses.
func (r *RecursiveResolver) ServeUDP(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	// Enc-marked packets are client queries unwrapped by a stream
	// endpoint, whatever their destination port; see Forwarder.ServeUDP.
	if pkt.Dst.Port() != 53 && pkt.Enc == 0 {
		r.handleUpstream(sc, pkt)
		return
	}
	// Every front-door case is decided from the view; only a query that
	// starts iteration is materialized.
	v, err := dnswire.ParseView(pkt.Payload)
	if err != nil || v.Header.Response || v.Header.QDCount == 0 {
		return
	}
	typ, class, _ := v.Question()
	if class == dnswire.ClassCHAOS {
		if rep, ok, drop := r.Adversary.chaosAnswer(&v, pkt, r.Egress); drop {
			return
		} else if ok {
			rep.send(sc, pkt, &v)
			return
		}
	}
	if rep, ok := r.Persona.answerView(&v); ok {
		rep.send(sc, pkt, &v)
		return
	}
	if class != dnswire.ClassINET {
		sendError(sc, pkt, &v, dnswire.RCodeNotImplemented)
		return
	}
	if !r.Adversary.AllowBogon(pkt, r.Egress) {
		return
	}
	if r.Hook != nil {
		if txts := r.Hook(v, pkt.Src); txts != nil {
			sendTXT(sc, pkt, &v, txts...)
			return
		}
	}
	if r.RefuseAll != dnswire.RCodeSuccess {
		sendError(sc, pkt, &v, r.RefuseAll)
		return
	}
	for name, rc := range r.Blocklist {
		if v.QuestionNameEqual(name) {
			sendError(sc, pkt, &v, rc)
			return
		}
	}
	j := r.newJob()
	j.clientPkt, j.query = *pkt, v
	r.lastName = v.QuestionName(r.lastName)
	j.q = dnswire.Question{Name: r.lastName, Type: typ, Class: class}
	j.wantDNSSEC = r.DNSSECAware && v.DO()
	r.advance(sc, j)
}

// newJob takes a job from the free list, or makes one.
func (r *RecursiveResolver) newJob() *job {
	if k := len(r.free); k > 0 {
		j := r.free[k-1]
		r.free = r.free[:k-1]
		return j
	}
	return new(job)
}

// freeJob retires a job to the free list, keeping its slices' storage
// but dropping every reference into packets and records.
func (r *RecursiveResolver) freeJob(j *job) {
	clear(j.cnameChain)
	clear(j.sigs)
	*j = job{cnameChain: j.cnameChain[:0], sigs: j.sigs[:0], glue: j.glue[:0]}
	r.free = append(r.free, j)
}

// bindJob binds a fresh upstream port for the job on the router sc
// delivers through, and arms dropPending for the drain under way. The
// port the job moves off is unbound and forgotten: no answer to it can
// reach the job any more.
func (r *RecursiveResolver) bindJob(sc *netsim.ServiceCtx, j *job) {
	if j.port != 0 {
		j.router.Unbind(j.port)
		delete(r.pending, j.port)
	}
	j.port = r.allocPort()
	j.router = sc.Router
	if r.pending == nil {
		r.pending = make(map[uint16]*job)
	}
	r.pending[j.port] = j
	j.router.Bind(j.port, r)
	if !r.idleArmed {
		if r.dropIdle == nil {
			r.dropIdle = r.dropPending
		}
		sc.OnIdle(r.dropIdle)
		r.idleArmed = true
	}
}

// dropPending drops every job still waiting when the network goes idle:
// its upstream query or the answer was lost, so nothing can complete
// it. It unbinds the job's port and sends nothing, so the client sees
// the timeout it would have seen anyway.
func (r *RecursiveResolver) dropPending() {
	r.idleArmed = false
	for port, j := range r.pending {
		j.router.Unbind(port)
		r.freeJob(j)
	}
	clear(r.pending)
}

// advance moves a job forward: serve from cache, or (re)start iteration
// from the roots for the job's current question.
func (r *RecursiveResolver) advance(sc *netsim.ServiceCtx, j *job) {
	if e, ok := r.cache[r.key(j.q)]; ok {
		if e.expires > sc.Now() {
			j.sigs = append(j.sigs, e.sigs...)
			r.finish(sc, j, e.rcode, e.answers)
			return
		}
		delete(r.cache, r.key(j.q)) // expired
	}
	j.servers = r.RootHints
	j.serverIdx = 0
	r.queryNext(sc, j)
}

// queryNext sends the job's question to its next candidate server.
func (r *RecursiveResolver) queryNext(sc *netsim.ServiceCtx, j *job) {
	for j.serverIdx < len(j.servers) {
		server := j.servers[j.serverIdx]
		j.serverIdx++
		src := r.egressFor(server)
		if !src.IsValid() {
			continue
		}
		r.bindJob(sc, j)
		payload, err := r.upstreamQuery(sc.PayloadBuf(), r.allocID(), j.q)
		if err != nil {
			continue
		}
		j.sent = payload
		sc.Send(netsim.Packet{
			Src:     netip.AddrPortFrom(src, j.port),
			Dst:     netip.AddrPortFrom(server, 53),
			Proto:   netsim.UDP,
			TTL:     netsim.DefaultTTL,
			Payload: payload,
		})
		return
	}
	// Out of servers: fail the client query.
	r.finish(sc, j, dnswire.RCodeServerFailure, nil)
}

// upstreamQuery appends the iterative query for q to dst: no RD, and
// an EDNS OPT with the DO bit when the resolver validates.
func (r *RecursiveResolver) upstreamQuery(dst []byte, id uint16, q dnswire.Question) ([]byte, error) {
	uq := dnswire.Query{ID: id, Name: q.Name, Type: q.Type, Class: q.Class}
	if r.DNSSECAware {
		uq.EDNS, uq.DO = 4096, true
	}
	return dnswire.AppendQuery(dst, uq)
}

// handleUpstream processes an authoritative answer for a pending job,
// reading it in place. The resolver initiated the exchange, so it
// recycles both its query's bytes and, once done, the answer's: nothing
// it keeps aliases them.
func (r *RecursiveResolver) handleUpstream(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	j, ok := r.pending[pkt.Dst.Port()]
	if !ok {
		return
	}
	sc.Recycle(j.sent)
	j.sent = nil
	defer sc.Recycle(pkt.Payload)
	resp, err := dnswire.ParseView(pkt.Payload)
	if err != nil || !resp.Header.Response {
		r.queryNext(sc, j)
		return
	}
	switch {
	case resp.Header.RCode == dnswire.RCodeNameError:
		// Negative caching with a conventional 60s lifetime (the zones'
		// SOA minimum is larger; a fixed small value is conservative).
		r.store(sc, j.q, cacheEntry{rcode: dnswire.RCodeNameError}, 60)
		r.finish(sc, j, dnswire.RCodeNameError, nil)
	case resp.Header.RCode != dnswire.RCodeSuccess:
		r.queryNext(sc, j) // lame or refusing server: try the next one
	case resp.Header.ANCount > 0:
		r.handleAnswer(sc, j, &resp)
	case resp.Header.NSCount > 0:
		r.followReferral(sc, j, &resp)
	default:
		// NODATA: genuine empty answer.
		r.store(sc, j.q, cacheEntry{rcode: dnswire.RCodeSuccess}, 60)
		r.finish(sc, j, dnswire.RCodeSuccess, nil)
	}
}

// handleAnswer consumes an authoritative answer section: either the
// final records, or a CNAME to chase. Only the records it keeps are
// copied out of the answer.
func (r *RecursiveResolver) handleAnswer(sc *netsim.ServiceCtx, j *job, resp *dnswire.View) {
	var matched, sigs []dnswire.Record
	var cname dnswire.Name
	chased := false
	for rr := resp.Answers(); rr.Next(); {
		if !rr.NameEqual(j.q.Name) {
			continue
		}
		if rr.Type == j.q.Type {
			matched = append(matched, rr.Record(j.q.Name))
		}
		if rr.Type == dnswire.TypeRRSIG && rr.TypeCovered() == j.q.Type {
			sigs = append(sigs, rr.Record(j.q.Name))
		}
		if rr.Type == dnswire.TypeCNAME {
			c := rr.Record(j.q.Name)
			cname, chased = c.Data.(dnswire.CNAMERData).Target, true
			j.cnameChain = append(j.cnameChain, c)
		}
	}
	if len(matched) > 0 {
		minTTL := matched[0].TTL
		for _, rr := range matched {
			if rr.TTL < minTTL {
				minTTL = rr.TTL
			}
		}
		r.store(sc, j.q, cacheEntry{rcode: dnswire.RCodeSuccess, answers: matched, sigs: sigs}, minTTL)
		j.sigs = append(j.sigs, sigs...)
		r.finish(sc, j, dnswire.RCodeSuccess, matched)
		return
	}
	if chased && j.q.Type != dnswire.TypeCNAME {
		j.cnameDepth++
		if j.cnameDepth > 8 {
			r.finish(sc, j, dnswire.RCodeServerFailure, nil)
			return
		}
		j.q = dnswire.Question{Name: cname, Type: j.q.Type, Class: j.q.Class}
		r.advance(sc, j)
		return
	}
	r.finish(sc, j, dnswire.RCodeSuccess, nil)
}

// followReferral walks one delegation step down the tree, using the
// glue addresses of the referral's additional section.
func (r *RecursiveResolver) followReferral(sc *netsim.ServiceCtx, j *job, resp *dnswire.View) {
	j.referrals++
	max := r.MaxReferrals
	if max == 0 {
		max = 16
	}
	if j.referrals > max {
		r.finish(sc, j, dnswire.RCodeServerFailure, nil)
		return
	}
	// The glue overwrites the previous referral's, which j.servers may
	// hold: those servers are done with.
	next := j.glue[:0]
	for rr := resp.Additional(); rr.Next(); {
		if a, ok := rr.Addr(); ok {
			next = append(next, a)
		}
	}
	j.glue = next
	if len(next) == 0 {
		// Glueless delegation: a full implementation would resolve the NS
		// names; the simulated tree always provides glue, so treat the
		// absence as a lame delegation.
		r.finish(sc, j, dnswire.RCodeServerFailure, nil)
		return
	}
	j.servers = next
	j.serverIdx = 0
	r.queryNext(sc, j)
}

// finish answers the client from the query's view, writing the
// response into a recycled payload buffer, and retires the job.
func (r *RecursiveResolver) finish(sc *netsim.ServiceCtx, j *job, rcode dnswire.RCode, answers []dnswire.Record) {
	if j.port != 0 {
		j.router.Unbind(j.port)
		delete(r.pending, j.port)
	}
	// NXDOMAIN wildcarding: rewrite the error into an ad-server answer.
	if rcode == dnswire.RCodeNameError && r.NXDomainWildcard.IsValid() &&
		j.q.Type == dnswire.TypeA && len(answers) == 0 {
		rcode = dnswire.RCodeSuccess
		answers = []dnswire.Record{{
			Name: j.q.Name, Class: dnswire.ClassINET, TTL: 30,
			Data: dnswire.ARData{Addr: r.NXDomainWildcard},
		}}
	}
	var w dnswire.Responder
	w.Start(&j.query, sc.PayloadBuf(), dnswire.Header{RCode: rcode, RecursionAvailable: true})
	w.Answer(j.cnameChain...)
	w.Answer(answers...)
	if j.wantDNSSEC {
		w.Answer(j.sigs...)
	}
	payload, err := w.Finish()
	if err != nil {
		payload = j.query.AppendErrorResponse(payload, dnswire.RCodeServerFailure)
	}
	sc.Reply(&j.clientPkt, payload)
	r.freeJob(j)
}

// store caches an entry for ttl seconds of virtual time. TTL-zero
// answers (the dynamic echo zones) are deliberately uncacheable.
func (r *RecursiveResolver) store(sc *netsim.ServiceCtx, q dnswire.Question, e cacheEntry, ttl uint32) {
	if ttl == 0 {
		return
	}
	e.expires = sc.Now() + time.Duration(ttl)*time.Second
	if r.cache == nil {
		r.cache = make(map[cacheKey]cacheEntry)
	}
	r.cache[r.key(q)] = e
}

// egressFor picks the egress address matching the server's family.
func (r *RecursiveResolver) egressFor(server netip.Addr) netip.Addr {
	if server.Is6() && !server.Is4In6() {
		return r.Egress6
	}
	return r.Egress
}

// allocPort hands out upstream ports, cycling within [10000, 20000).
func (r *RecursiveResolver) allocPort() uint16 {
	p := r.nextPort
	r.nextPort++
	if r.nextPort >= 20000 {
		r.nextPort = 10000
	}
	return p
}

// allocID hands out upstream query IDs.
func (r *RecursiveResolver) allocID() uint16 {
	id := r.nextID
	r.nextID++
	return id
}

// key builds the cache key for a question.
func (r *RecursiveResolver) key(q dnswire.Question) cacheKey {
	return cacheKey{name: q.Name.Canonical(), typ: q.Type, class: q.Class}
}
