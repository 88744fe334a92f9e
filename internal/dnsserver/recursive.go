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

	cache    map[cacheKey]cacheEntry
	pending  map[uint16]*job
	nextPort uint16
	nextID   uint16
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

// job is one in-flight client resolution.
type job struct {
	clientPkt   netsim.Packet
	clientQuery *dnswire.Message
	q           dnswire.Question
	servers     []netip.Addr
	serverIdx   int
	referrals   int
	cnameChain  []dnswire.Record
	cnameDepth  int
	port        uint16
	wantDNSSEC  bool
	sigs        []dnswire.Record
}

// NewRecursiveResolver builds a resolver with the given egress address
// and root hints.
func NewRecursiveResolver(egress netip.Addr, rootHints ...netip.Addr) *RecursiveResolver {
	return &RecursiveResolver{
		Egress:       egress,
		RootHints:    rootHints,
		MaxReferrals: 16,
		cache:        make(map[cacheKey]cacheEntry),
		pending:      make(map[uint16]*job),
		nextPort:     10000,
		nextID:       1,
	}
}

// FlushCache empties the resolver cache.
func (r *RecursiveResolver) FlushCache() { r.cache = make(map[cacheKey]cacheEntry) }

// ServeUDP implements netsim.Service: port 53 receives client queries;
// ephemeral ports receive upstream responses.
func (r *RecursiveResolver) ServeUDP(sc *netsim.ServiceCtx, pkt netsim.Packet) {
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
	_, class, _ := v.Question()
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
	query := v.Message()
	j := &job{
		clientPkt: pkt, clientQuery: query, q: query.Question(),
		wantDNSSEC: r.DNSSECAware && query.DO(),
	}
	r.advance(sc, j)
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
		if j.port != 0 {
			sc.Router.Unbind(j.port)
		}
		j.port = r.allocPort()
		r.pending[j.port] = j
		sc.Router.Bind(j.port, r)
		payload, err := r.upstreamQuery(r.allocID(), j.q)
		if err != nil {
			continue
		}
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

// upstreamQuery packs the iterative query for q: no RD, and an EDNS
// OPT with the DO bit when the resolver validates.
func (r *RecursiveResolver) upstreamQuery(id uint16, q dnswire.Question) ([]byte, error) {
	uq := dnswire.Query{ID: id, Name: q.Name, Type: q.Type, Class: q.Class}
	if r.DNSSECAware {
		uq.EDNS, uq.DO = 4096, true
	}
	return dnswire.AppendQuery(nil, uq)
}

// handleUpstream processes an authoritative answer for a pending job.
func (r *RecursiveResolver) handleUpstream(sc *netsim.ServiceCtx, pkt netsim.Packet) {
	j, ok := r.pending[pkt.Dst.Port()]
	if !ok {
		return
	}
	resp, err := dnswire.Unpack(pkt.Payload)
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
	case len(resp.Answers) > 0:
		r.handleAnswer(sc, j, resp)
	case len(resp.Authority) > 0:
		r.followReferral(sc, j, resp)
	default:
		// NODATA: genuine empty answer.
		r.store(sc, j.q, cacheEntry{rcode: dnswire.RCodeSuccess}, 60)
		r.finish(sc, j, dnswire.RCodeSuccess, nil)
	}
}

// handleAnswer consumes an authoritative answer section: either the
// final records, or a CNAME to chase.
func (r *RecursiveResolver) handleAnswer(sc *netsim.ServiceCtx, j *job, resp *dnswire.Message) {
	var matched, sigs []dnswire.Record
	var cname *dnswire.CNAMERData
	for _, rr := range resp.Answers {
		if rr.Type() == j.q.Type && rr.Name.Equal(j.q.Name) {
			matched = append(matched, rr)
		}
		if sig, ok := rr.Data.(dnswire.RRSIGRData); ok &&
			sig.TypeCovered == j.q.Type && rr.Name.Equal(j.q.Name) {
			sigs = append(sigs, rr)
		}
		if c, ok := rr.Data.(dnswire.CNAMERData); ok && rr.Name.Equal(j.q.Name) {
			cname = &c
			j.cnameChain = append(j.cnameChain, rr)
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
	if cname != nil && j.q.Type != dnswire.TypeCNAME {
		j.cnameDepth++
		if j.cnameDepth > 8 {
			r.finish(sc, j, dnswire.RCodeServerFailure, nil)
			return
		}
		j.q = dnswire.Question{Name: cname.Target, Type: j.q.Type, Class: j.q.Class}
		r.advance(sc, j)
		return
	}
	r.finish(sc, j, dnswire.RCodeSuccess, nil)
}

// followReferral walks one delegation step down the tree, using glue.
func (r *RecursiveResolver) followReferral(sc *netsim.ServiceCtx, j *job, resp *dnswire.Message) {
	j.referrals++
	max := r.MaxReferrals
	if max == 0 {
		max = 16
	}
	if j.referrals > max {
		r.finish(sc, j, dnswire.RCodeServerFailure, nil)
		return
	}
	var next []netip.Addr
	for _, rr := range resp.Additional {
		switch d := rr.Data.(type) {
		case dnswire.ARData:
			next = append(next, d.Addr)
		case dnswire.AAAARData:
			next = append(next, d.Addr)
		}
	}
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

// finish answers the client and retires the job.
func (r *RecursiveResolver) finish(sc *netsim.ServiceCtx, j *job, rcode dnswire.RCode, answers []dnswire.Record) {
	if j.port != 0 {
		sc.Router.Unbind(j.port)
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
	resp := dnswire.NewResponse(j.clientQuery, rcode)
	resp.Header.RecursionAvailable = true
	resp.Answers = append(resp.Answers, j.cnameChain...)
	resp.Answers = append(resp.Answers, answers...)
	if j.wantDNSSEC {
		resp.Answers = append(resp.Answers, j.sigs...)
	}
	r.reply(sc, j.clientPkt, resp)
}

// store caches an entry for ttl seconds of virtual time. TTL-zero
// answers (the dynamic echo zones) are deliberately uncacheable.
func (r *RecursiveResolver) store(sc *netsim.ServiceCtx, q dnswire.Question, e cacheEntry, ttl uint32) {
	if ttl == 0 {
		return
	}
	e.expires = sc.Now() + time.Duration(ttl)*time.Second
	r.cache[r.key(q)] = e
}

// reply packs and sends a response to the packet's source, reusing a
// recycled payload buffer for the bytes.
func (r *RecursiveResolver) reply(sc *netsim.ServiceCtx, to netsim.Packet, m *dnswire.Message) {
	payload, err := m.PackTo(sc.PayloadBuf())
	if err != nil {
		payload = dnswire.MustPack(dnswire.NewErrorResponse(m, dnswire.RCodeServerFailure))
	}
	sc.Reply(to, payload)
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
