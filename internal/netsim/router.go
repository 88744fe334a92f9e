package netsim

import (
	"net/netip"
	"slices"
	"time"
)

// Service is a UDP server bound to a port on a Router. Implementations
// are state machines: they handle one datagram and may send others
// (responses, upstream queries) through the ServiceCtx. The ServiceCtx
// is shared by every delivery of the network: it is valid only during
// the ServeUDP call, and a service must not keep it for later sends.
type Service interface {
	ServeUDP(sc *ServiceCtx, pkt Packet)
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(sc *ServiceCtx, pkt Packet)

// ServeUDP implements Service.
func (f ServiceFunc) ServeUDP(sc *ServiceCtx, pkt Packet) { f(sc, pkt) }

// ServiceCtx lets a service send packets that originate at its router.
// It is borrowed for one ServeUDP call: the network reuses it for the
// next delivery, retargeted at that delivery's router, so a kept
// ServiceCtx would send from the wrong router.
type ServiceCtx struct {
	Router *Router
	ctx    *Ctx
}

// Now returns the current virtual time — services use it for cache
// expiry and timestamps.
func (sc *ServiceCtx) Now() time.Duration { return sc.ctx.Now() }

// PayloadBuf hands the service a recycled payload buffer for building a
// reply (see Network.PayloadBuf). Only payloads that reach an exchange
// initiator are ever recycled back, so a service may use this for any
// packet it sends.
func (sc *ServiceCtx) PayloadBuf() []byte { return sc.ctx.net.PayloadBuf() }

// Send emits a locally-originated packet. The router's reverse-DNAT
// table is consulted so that responses to intercepted flows leave with
// the spoofed (original-destination) source address, then the packet is
// routed normally.
func (sc *ServiceCtx) Send(pkt Packet) { sc.send(&pkt) }

// Reply builds and sends the conventional response to an inbound
// datagram: source and destination swapped, fresh TTL, given payload.
// The request's SentAt carries over so the client can measure the
// flow's round-trip time.
func (sc *ServiceCtx) Reply(to Packet, payload []byte) {
	pkt := Packet{
		Src:     to.Dst,
		Dst:     to.Src,
		Proto:   to.Proto,
		TTL:     DefaultTTL,
		Payload: payload,
		SentAt:  to.SentAt,
		Enc:     to.Enc,
	}
	sc.send(&pkt)
}

// send is Send on a packet it rewrites in place.
func (sc *ServiceCtx) send(pkt *Packet) {
	r := sc.Router
	if pkt.SentAt == 0 {
		pkt.SentAt = sc.ctx.Now()
	}
	if r.NAT != nil && r.NAT.reverseDNAT(pkt) {
		sc.ctx.Trace(TraceUnDNAT, pkt, "spoofing source for intercepted flow")
	}
	r.routePacket(sc.ctx, pkt, true)
}

// Route is one forwarding-table entry.
type Route struct {
	Prefix netip.Prefix
	Next   Device
	// Filter, if set, can veto forwarding via this route; the packet is
	// dropped with the returned reason. Border routers use it to discard
	// bogon-addressed packets at the AS edge.
	Filter func(Packet) (drop bool, why string)
}

// Router is the general middle-of-network device: CPE, ISP access and
// border routers, middleboxes, and server front-ends are all Routers
// with different configuration. Its receive pipeline follows netfilter
// order: conntrack reversal and DNAT at PREROUTING, then the routing
// decision (local delivery vs. forward), then SNAT at POSTROUTING.
type Router struct {
	Name string

	// Delay is the one-way latency of this router's uplinks; zero uses
	// the network default. World builders grade it by tier (LAN < access
	// < backbone) so virtual RTTs are meaningful.
	Delay time.Duration

	// RouterID is the address this router answers ICMP Time Exceeded
	// from (when the network enables it). Zero means the router stays
	// anonymous and traceroute shows "*" at its hop.
	RouterID netip.Addr

	// NAT, if non-nil, enables DNAT/SNAT processing.
	NAT *NAT

	addrs    []netip.Addr // a handful per router: a scan beats a hash
	services map[uint16]Service
	byAddr   map[netip.AddrPort]Service
	noServe  map[netip.AddrPort]bool

	// Routes are stored per family in per-prefix-length tables
	// (routetable.go) so lookup is O(distinct prefix lengths) probes,
	// not a linear scan — access routers in the study carry one route
	// per live subscriber. Entries are keyed by the pointer-free masked
	// address, so a probe hashes 16 bytes, or compares them when the
	// length holds a single route.
	routes4 lenTables[*Route]
	routes6 lenTables[*Route]
	// spareRoutes recycles removed entries, so a subscriber route that
	// comes and goes with each home costs no allocation.
	spareRoutes []*Route

	// cache4/cache6 memoize recent lookupRoute results. Routers forward
	// long runs of packets between the same few endpoints (a probe's
	// WAN address and a handful of resolvers), so a tiny cache converts
	// the per-length table probes into a few address compares.
	// A table change drops the memo entries its prefix covers, and a
	// new prefix length drops them all.
	cache4 lookupCache
	cache6 lookupCache

	// inputFilters veto arriving packets before any PREROUTING
	// processing — the INPUT/FORWARD drop rules of an iptables firewall.
	// A middlebox that blocks encrypted DNS to force a downgrade (the
	// XDRI "block" behavior) installs one matching TCP 853/443.
	inputFilters []func(Packet) (drop bool, why string)

	// core, when set, shares this router's forwarding table across
	// worlds (see routingcore.go). The recorder keeps local tables and
	// mirrors inserts into the core; bound routers resolve against the
	// sealed core plus any world-local additions, with coreRoutes
	// materializing each core ordinal as a cacheable *Route.
	core          *RoutingCore
	coreRecording bool
	coreRoutes    []Route
}

// lookupCacheSlots is the per-family memo size: big enough for the
// endpoints of one in-flight exchange (client, resolver, next hop,
// ICMP source), small enough to scan in a few compares.
const lookupCacheSlots = 4

// lookupCache is a tiny round-robin memo of lookupRoute results, keyed
// by the destination's full-length routeKey (one cache per family, so
// keys never collide across families). A hit may carry a nil route —
// "no route" is as cacheable as a match.
type lookupCache struct {
	dst  [lookupCacheSlots]routeKey
	rt   [lookupCacheSlots]*Route
	ok   [lookupCacheSlots]bool
	next int
}

func (c *lookupCache) get(d routeKey) (*Route, bool) {
	for i := range c.dst {
		if c.ok[i] && c.dst[i] == d {
			return c.rt[i], true
		}
	}
	return nil, false
}

func (c *lookupCache) put(d routeKey, rt *Route) {
	i := c.next
	c.dst[i], c.rt[i], c.ok[i] = d, rt, true
	c.next = (i + 1) % lookupCacheSlots
}

// invalidate forgets every memoized destination inside the prefix with
// masked key k and length bits (in the key's 128-bit space): only
// those lookups can resolve differently once its route comes or goes.
func (c *lookupCache) invalidate(k routeKey, bits int) {
	for i := range c.dst {
		if c.ok[i] && c.dst[i].mask(bits) == k {
			c.ok[i], c.rt[i] = false, nil
		}
	}
}

// NewRouter returns a router with the given local addresses.
func NewRouter(name string, addrs ...netip.Addr) *Router {
	r := new(Router)
	r.Reset(name, addrs...)
	return r
}

// Reset returns the router to the state NewRouter(name, addrs...)
// gives it, keeping its storage: the service and forwarding maps are
// emptied in place, every local route moves to spareRoutes for the
// next AddRoute, and the lookup memos are zeroed. A CPE slot rebinds
// one router per probe this way. The prefix lengths a table has held
// stay, empty, which no lookup can tell apart from a missing length.
// A router sharing a RoutingCore cannot be reset: its forwarding state
// is not its own.
func (r *Router) Reset(name string, addrs ...netip.Addr) {
	if r.core != nil {
		panic("netsim: Reset on router " + r.Name + ", which shares a RoutingCore")
	}
	spare := r.spareRoutes
	for _, table := range [...]lenTables[*Route]{r.routes4, r.routes6} {
		for i := range table {
			for _, rt := range table[i].m {
				*rt = Route{}
				spare = append(spare, rt)
			}
			clear(table[i].m)
		}
	}
	*r = Router{
		Name:         name,
		addrs:        r.addrs[:0],
		services:     clearOrMake(r.services),
		byAddr:       clearOrMake(r.byAddr),
		noServe:      clearOrMake(r.noServe),
		routes4:      r.routes4,
		routes6:      r.routes6,
		spareRoutes:  spare,
		inputFilters: r.inputFilters[:0],
	}
	for _, a := range addrs {
		r.AddAddr(a)
	}
}

// clearOrMake empties m in place, keeping its capacity, or makes it
// when it is nil.
func clearOrMake[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// DeviceName implements Device.
func (r *Router) DeviceName() string { return r.Name }

// EgressDelay implements EgressDelayer.
func (r *Router) EgressDelay() time.Duration { return r.Delay }

// AddAddr adds a local address.
func (r *Router) AddAddr(a netip.Addr) {
	if !r.HasAddr(a) {
		r.addrs = append(r.addrs, a)
	}
}

// HasAddr reports whether a is local to this router.
func (r *Router) HasAddr(a netip.Addr) bool { return slices.Contains(r.addrs, a) }

// Addrs returns the router's local addresses, in the order they were
// added.
func (r *Router) Addrs() []netip.Addr { return slices.Clone(r.addrs) }

// Bind attaches a service to a UDP port on all local addresses.
// A port with no service is "closed": packets to it are dropped, which
// the client observes as a timeout.
func (r *Router) Bind(port uint16, s Service) { r.services[port] = s }

// BindOn attaches a service to a port on one specific local address,
// taking precedence over a wildcard Bind on the same port.
func (r *Router) BindOn(addr netip.Addr, port uint16, s Service) {
	r.byAddr[netip.AddrPortFrom(addr, port)] = s
}

// CloseOn marks (addr, port) closed even if a wildcard Bind covers the
// port — how a CPE firewalls port 53 on its WAN address while serving
// its LAN.
func (r *Router) CloseOn(addr netip.Addr, port uint16) {
	r.noServe[netip.AddrPortFrom(addr, port)] = true
}

// Unbind detaches the wildcard service on a port. Services that open
// ephemeral upstream ports (forwarders, resolvers) use it to clean up.
func (r *Router) Unbind(port uint16) { delete(r.services, port) }

// BoundService returns the service that would receive traffic to
// (addr, port), if any.
func (r *Router) BoundService(addr netip.Addr, port uint16) (Service, bool) {
	key := netip.AddrPortFrom(addr, port)
	if r.noServe[key] {
		return nil, false
	}
	if s, ok := r.byAddr[key]; ok {
		return s, true
	}
	s, ok := r.services[port]
	return s, ok
}

// AddInputFilter installs a drop rule evaluated on every packet this
// router receives, before conntrack and DNAT. Dropped packets vanish;
// the sender observes a timeout, as with a real silent firewall DROP.
func (r *Router) AddInputFilter(f func(Packet) (drop bool, why string)) {
	r.inputFilters = append(r.inputFilters, f)
}

// AddRoute appends a forwarding entry.
func (r *Router) AddRoute(prefix netip.Prefix, next Device) {
	r.insertRoute(r.newRoute(Route{Prefix: prefix, Next: next}))
}

// AddRouteFiltered appends a forwarding entry with an egress filter.
func (r *Router) AddRouteFiltered(prefix netip.Prefix, next Device, filter func(Packet) (bool, string)) {
	r.insertRoute(r.newRoute(Route{Prefix: prefix, Next: next, Filter: filter}))
}

// newRoute places a route in a recycled entry when RemoveRoute left one.
func (r *Router) newRoute(rt Route) *Route {
	var p *Route
	if n := len(r.spareRoutes); n > 0 {
		p = r.spareRoutes[n-1]
		r.spareRoutes = r.spareRoutes[:n-1]
	} else {
		p = new(Route)
	}
	*p = rt
	return p
}

// RemoveRoute deletes the local forwarding entry for prefix, if there
// is one. Entries a bound router reads from its shared core are never
// removed: the core belongs to every world of the template. Lookups
// the route answered fall back to the next-longest match.
func (r *Router) RemoveRoute(prefix netip.Prefix) {
	p := prefix.Masked()
	table, cache := r.routes4, &r.cache4
	if p.Addr().Is6() {
		table, cache = r.routes6, &r.cache6
	}
	k, bits := prefixKey(p)
	t := table.find(bits)
	if t == nil {
		return
	}
	rt, ok := t.get(k)
	if !ok {
		return
	}
	t.remove(k)
	cache.invalidate(k, bits)
	*rt = Route{}
	r.spareRoutes = append(r.spareRoutes, rt)
}

// ShareCore attaches shared routing state (routingcore.go). In
// recording mode the router keeps its local tables — the recorder world
// stays the reference — and mirrors eligible inserts into the core. In
// bound mode the sealed core supplies the table; coreRoutes is sized
// once so materialized routes have stable addresses for the lookup
// cache.
func (r *Router) ShareCore(core *RoutingCore, recording bool) {
	if core == nil {
		return
	}
	r.core = core
	r.coreRecording = recording
	if !recording {
		r.coreRoutes = make([]Route, core.numRoutes)
	}
}

// insertRoute stores a route in the per-family, per-length map. A later
// insert of the same prefix replaces the earlier one.
func (r *Router) insertRoute(rt *Route) {
	p := rt.Prefix.Masked()
	rt.Prefix = p
	if r.core != nil && rt.Filter == nil && rt.Next != nil {
		if r.coreRecording {
			r.core.record(p, rt.Next.DeviceName())
			// fall through: the recorder also populates local tables
		} else if e, ok := r.core.entry(p); ok && r.core.hopNames[e.hop] == rt.Next.DeviceName() {
			// Bound world re-issuing a recorded insert: just bind the
			// device into the ordinal's slot, no map work. Inserts the
			// core doesn't know (or that disagree on the hop) fall
			// through to a local insert, which shadows the core entry.
			r.coreRoutes[e.ord] = Route{Prefix: p, Next: rt.Next}
			return
		}
	}
	table, cache := &r.routes4, &r.cache4
	if p.Addr().Is6() {
		table, cache = &r.routes6, &r.cache6
	}
	k, bits := prefixKey(p)
	if table.find(bits) == nil {
		// A new prefix length resets both memos outright. Lengths are
		// new only while a router is configured, so this costs nothing
		// per packet; the wider rule stays because the Diagnostic
		// route-memo counts depend on exactly when entries are dropped.
		r.cache4, r.cache6 = lookupCache{}, lookupCache{}
	}
	table.at(bits).set(k, rt)
	cache.invalidate(k, bits)
}

// AddDefaultRoute installs 0.0.0.0/0 and ::/0 towards next.
func (r *Router) AddDefaultRoute(next Device) {
	r.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), next)
	r.AddRoute(netip.MustParsePrefix("::/0"), next)
}

// AddDefaultRouteFiltered installs filtered default routes for both
// families.
func (r *Router) AddDefaultRouteFiltered(next Device, filter func(Packet) (bool, string)) {
	r.AddRouteFiltered(netip.MustParsePrefix("0.0.0.0/0"), next, filter)
	r.AddRouteFiltered(netip.MustParsePrefix("::/0"), next, filter)
}

// lookupRoute performs longest-prefix-match over the table, memoized
// per destination. The memo is pure: it only short-circuits a repeat of
// the identical lookup, and a table change invalidates every memoized
// destination it could affect.
func (r *Router) lookupRoute(dst netip.Addr) *Route {
	return r.lookupRouteM(dst, nil)
}

// lookupRouteM is lookupRoute with the hot path's metric handles; nm
// may be nil (metrics detached).
func (r *Router) lookupRouteM(dst netip.Addr, nm *netMetrics) *Route {
	// A v4-mapped destination keys as its IPv4 address and routes by
	// the IPv4 table.
	k := addrKey(dst)
	bound := r.core != nil && !r.coreRecording
	table, cache := r.routes4, &r.cache4
	var core lenTables[coreEntry]
	if bound {
		core = r.core.v4
	}
	if isIPv6(dst) {
		table, cache = r.routes6, &r.cache6
		if bound {
			core = r.core.v6
		}
	}
	if nm != nil {
		nm.routeLookups.Inc()
	}
	if rt, ok := cache.get(k); ok {
		if nm != nil {
			nm.routeCacheHits.Inc()
		}
		return rt
	}
	hit := r.lpmMatch(k, table, core)
	cache.put(k, hit)
	return hit
}

// lpmMatch scans the local table and (on bound routers) the shared core
// in a merged longest-prefix walk over the destination's key k. Local
// entries win ties — a world-local insert shadows the core's entry for
// the same prefix length.
func (r *Router) lpmMatch(k routeKey, table lenTables[*Route], core lenTables[coreEntry]) *Route {
	li, ci := 0, 0
	for li < len(table) || ci < len(core) {
		if ci == len(core) || (li < len(table) && table[li].bits >= core[ci].bits) {
			t := &table[li]
			li++
			if rt, ok := t.get(k.mask(t.bits)); ok {
				return rt
			}
		} else {
			t := &core[ci]
			ci++
			if e, ok := t.get(k.mask(t.bits)); ok {
				if rt := &r.coreRoutes[e.ord]; rt.Next != nil {
					return rt
				}
			}
		}
	}
	return nil
}

// Receive implements Device: the netfilter-ordered pipeline. Every
// stage rewrites the borrowed packet in place.
func (r *Router) Receive(ctx *Ctx, pkt *Packet) {
	// Firewall drop rules run first: a blocked packet never reaches
	// conntrack or NAT.
	for _, f := range r.inputFilters {
		if drop, why := f(*pkt); drop {
			ctx.Drop(pkt, why)
			return
		}
	}

	// PREROUTING, conntrack reversal: replies of tracked flows get their
	// addresses restored before any routing decision. ICMP errors about
	// masqueraded flows are re-addressed to the original LAN host.
	if r.NAT != nil {
		if pkt.Proto == ICMP {
			if r.NAT.reverseDNATICMP(pkt) {
				ctx.Trace(TraceUnDNAT, pkt, "restoring original destination (icmp)")
			}
			if r.NAT.reverseSNATICMP(pkt) {
				ctx.Trace(TraceUnSNAT, pkt, "restoring LAN destination (icmp)")
			}
		}
		if r.NAT.reverseDNAT(pkt) {
			ctx.Trace(TraceUnDNAT, pkt, "spoofing source for intercepted flow")
		}
		if r.NAT.reverseSNAT(pkt) {
			ctx.Trace(TraceUnSNAT, pkt, "restoring LAN destination")
		}
	}

	// PREROUTING, DNAT: interception happens here, before the routing
	// decision — netfilter order. The rule set sees every arriving
	// packet, including ones addressed to the router itself; that is why
	// an intercepting CPE answers a version.bind query sent to its own
	// public address (§3.2 of the paper).
	if r.NAT != nil {
		if rule := r.NAT.matchDNAT(pkt); rule != nil {
			// Query replication: the original also continues. It is
			// copied before the rewrite and routed first, after the
			// rewrite is recorded and traced.
			var orig Packet
			if rule.Replicate {
				orig = *pkt
			}
			from := pkt.Dst
			r.NAT.rewriteDNAT(pkt, rule)
			ctx.net.observeNAT(r.NAT)
			if ctx.net.tracing() {
				ctx.Trace(TraceDNAT, pkt, "intercepted: "+from.String()+" -> "+pkt.Dst.String())
			}
			if rule.Replicate {
				r.routePacket(ctx, &orig, false)
			}
		}
	}

	// Routing decision: local delivery?
	if r.HasAddr(pkt.Dst.Addr()) {
		r.deliverLocal(ctx, pkt)
		return
	}
	r.routePacket(ctx, pkt, false)
}

// deliverLocal hands the packet to the bound service, if any. Services
// take their packet by value and get the drain's one ServiceCtx: no
// service keeps it past ServeUDP.
func (r *Router) deliverLocal(ctx *Ctx, pkt *Packet) {
	s, ok := r.BoundService(pkt.Dst.Addr(), pkt.Dst.Port())
	if !ok {
		ctx.Drop(pkt, "port closed")
		return
	}
	ctx.Trace(TraceDeliver, pkt, "local service")
	sc := &ctx.net.sctx
	sc.Router, sc.ctx = r, ctx
	s.ServeUDP(sc, *pkt)
}

// routePacket forwards via the table, applying POSTROUTING SNAT in
// place. locallyOriginated packets skip route filters' TTL handling
// edge cases but otherwise follow the same path.
func (r *Router) routePacket(ctx *Ctx, pkt *Packet, locallyOriginated bool) {
	rt := r.lookupRouteM(pkt.Dst.Addr(), ctx.net.metrics)
	if rt == nil || rt.Next == nil {
		if ctx.net.tracing() {
			ctx.Drop(pkt, "no route to "+pkt.Dst.Addr().String())
		}
		return
	}
	if rt.Filter != nil {
		if drop, why := rt.Filter(*pkt); drop {
			ctx.Drop(pkt, why)
			return
		}
	}
	// TTL expiry is decided before POSTROUTING so the ICMP notification
	// references the original (pre-SNAT) source.
	if !locallyOriginated && pkt.TTL <= 1 {
		if ctx.net.tracing() {
			expired := *pkt
			expired.TTL = 0
			ctx.Trace(TraceDrop, &expired, "ttl exceeded")
		}
		if ctx.net.EmitTimeExceeded && pkt.Proto != ICMP {
			// If this very device DNATed the flow, report the client's
			// original destination in the ICMP (conntrack fixup). The
			// packet dies here, so it is rewritten in place.
			if r.NAT != nil {
				key := ctKey{client: pkt.Src, target: pkt.Dst}
				if orig, ok := r.NAT.dnatCT[key]; ok {
					delete(r.NAT.dnatCT, key)
					pkt.Dst = orig
				}
			}
			r.sendTimeExceeded(ctx, pkt)
		}
		return
	}
	// POSTROUTING: masquerade LAN sources on the way out.
	if r.NAT != nil && !locallyOriginated {
		from := pkt.Src
		if r.NAT.applySNAT(pkt) {
			ctx.net.observeNAT(r.NAT)
			if ctx.net.tracing() {
				ctx.Trace(TraceSNAT, pkt, "masqueraded "+from.String()+" -> "+pkt.Src.String())
			}
		}
	}
	if locallyOriginated {
		ctx.Emit(rt.Next, pkt)
		return
	}
	ctx.Forward(rt.Next, pkt)
}
