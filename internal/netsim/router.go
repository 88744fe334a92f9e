package netsim

import (
	"net/netip"
	"sort"
	"time"
)

// Service is a UDP server bound to a port on a Router. Implementations
// are state machines: they handle one datagram and may send others
// (responses, upstream queries) through the ServiceCtx.
type Service interface {
	ServeUDP(sc *ServiceCtx, pkt Packet)
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(sc *ServiceCtx, pkt Packet)

// ServeUDP implements Service.
func (f ServiceFunc) ServeUDP(sc *ServiceCtx, pkt Packet) { f(sc, pkt) }

// ServiceCtx lets a service send packets that originate at its router.
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
func (sc *ServiceCtx) Send(pkt Packet) {
	r := sc.Router
	if pkt.SentAt == 0 {
		pkt.SentAt = sc.ctx.Now()
	}
	if r.NAT != nil {
		if rewritten, ok := r.NAT.reverseDNAT(pkt); ok {
			sc.ctx.Trace(TraceUnDNAT, rewritten, "spoofing source for intercepted flow")
			pkt = rewritten
		}
	}
	r.routePacket(sc.ctx, pkt, true)
}

// Reply builds and sends the conventional response to an inbound
// datagram: source and destination swapped, fresh TTL, given payload.
// The request's SentAt carries over so the client can measure the
// flow's round-trip time.
func (sc *ServiceCtx) Reply(to Packet, payload []byte) {
	sc.Send(Packet{
		Src:     to.Dst,
		Dst:     to.Src,
		Proto:   to.Proto,
		TTL:     DefaultTTL,
		Payload: payload,
		SentAt:  to.SentAt,
		Enc:     to.Enc,
	})
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

	addrs    map[netip.Addr]bool
	services map[uint16]Service
	byAddr   map[netip.AddrPort]Service
	noServe  map[netip.AddrPort]bool

	// Routes are stored per family in per-prefix-length maps so lookup
	// is O(distinct prefix lengths) hash probes, not a linear scan —
	// access routers in the study carry one route per live subscriber.
	// A per-length map outlives its last route, so a length list only
	// goes stale when an insert brings a new prefix length.
	routes4  map[int]map[netip.Prefix]*Route
	routes6  map[int]map[netip.Prefix]*Route
	lengths4 []int // descending, rebuilt when stale
	lengths6 []int
	stale    bool
	// spareRoutes recycles removed entries, so a subscriber route that
	// comes and goes with each home costs no allocation.
	spareRoutes []*Route

	// cache4/cache6 memoize recent lookupRoute results. Routers forward
	// long runs of packets between the same few endpoints (a probe's
	// WAN address and a handful of resolvers), so a tiny cache converts
	// the per-length prefix-map probes into a few address compares.
	// A table change drops the memo entries its prefix covers; a stale
	// length list drops them all.
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

// lookupCache is a tiny round-robin memo of lookupRoute results. A hit
// may carry a nil route — "no route" is as cacheable as a match.
type lookupCache struct {
	dst  [lookupCacheSlots]netip.Addr
	rt   [lookupCacheSlots]*Route
	ok   [lookupCacheSlots]bool
	next int
}

func (c *lookupCache) get(d netip.Addr) (*Route, bool) {
	for i := range c.dst {
		if c.ok[i] && c.dst[i] == d {
			return c.rt[i], true
		}
	}
	return nil, false
}

func (c *lookupCache) put(d netip.Addr, rt *Route) {
	i := c.next
	c.dst[i], c.rt[i], c.ok[i] = d, rt, true
	c.next = (i + 1) % lookupCacheSlots
}

// invalidate forgets every memoized destination inside p: only those
// lookups can resolve differently once a route for p comes or goes.
func (c *lookupCache) invalidate(p netip.Prefix) {
	for i := range c.dst {
		if c.ok[i] && p.Contains(c.dst[i]) {
			c.ok[i], c.rt[i] = false, nil
		}
	}
}

// NewRouter returns a router with the given local addresses.
func NewRouter(name string, addrs ...netip.Addr) *Router {
	r := &Router{
		Name:     name,
		addrs:    make(map[netip.Addr]bool),
		services: make(map[uint16]Service),
		byAddr:   make(map[netip.AddrPort]Service),
		noServe:  make(map[netip.AddrPort]bool),
		routes4:  make(map[int]map[netip.Prefix]*Route),
		routes6:  make(map[int]map[netip.Prefix]*Route),
	}
	for _, a := range addrs {
		r.addrs[a] = true
	}
	return r
}

// DeviceName implements Device.
func (r *Router) DeviceName() string { return r.Name }

// EgressDelay implements EgressDelayer.
func (r *Router) EgressDelay() time.Duration { return r.Delay }

// AddAddr adds a local address.
func (r *Router) AddAddr(a netip.Addr) { r.addrs[a] = true }

// HasAddr reports whether a is local to this router.
func (r *Router) HasAddr(a netip.Addr) bool { return r.addrs[a] }

// Addrs returns the router's local addresses (unordered).
func (r *Router) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(r.addrs))
	for a := range r.addrs {
		out = append(out, a)
	}
	return out
}

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
	rt, ok := table[p.Bits()][p]
	if !ok {
		return
	}
	delete(table[p.Bits()], p)
	cache.invalidate(p)
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
	table, cache := r.routes4, &r.cache4
	if p.Addr().Is6() {
		table, cache = r.routes6, &r.cache6
	}
	if table[p.Bits()] == nil {
		table[p.Bits()] = make(map[netip.Prefix]*Route)
		r.stale = true
	}
	table[p.Bits()][p] = rt
	cache.invalidate(p)
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
	if r.stale {
		r.lengths4 = sortedLengthsDesc(r.routes4)
		r.lengths6 = sortedLengthsDesc(r.routes6)
		r.cache4 = lookupCache{}
		r.cache6 = lookupCache{}
		r.stale = false
	}
	d := dst.Unmap()
	table, lengths, cache := r.routes4, r.lengths4, &r.cache4
	var core *coreTable
	if r.core != nil && !r.coreRecording {
		core = &r.core.v4
	}
	if d.Is6() {
		table, lengths, cache = r.routes6, r.lengths6, &r.cache6
		if core != nil {
			core = &r.core.v6
		}
	}
	if nm != nil {
		nm.routeLookups.Inc()
	}
	if rt, ok := cache.get(d); ok {
		if nm != nil {
			nm.routeCacheHits.Inc()
		}
		return rt
	}
	hit := r.lpmMatch(d, table, lengths, core)
	cache.put(d, hit)
	return hit
}

// lpmMatch scans the local table and (on bound routers) the shared core
// in a merged longest-prefix walk. Local entries win ties — a world-
// local insert shadows the core's entry for the same prefix length.
func (r *Router) lpmMatch(d netip.Addr, table map[int]map[netip.Prefix]*Route, lengths []int, core *coreTable) *Route {
	li, ci := 0, 0
	for li < len(lengths) || (core != nil && ci < len(core.lengths)) {
		lb, cb := -1, -1
		if li < len(lengths) {
			lb = lengths[li]
		}
		if core != nil && ci < len(core.lengths) {
			cb = core.lengths[ci]
		}
		if lb >= cb {
			li++
			if p, err := d.Prefix(lb); err == nil {
				if rt, ok := table[lb][p]; ok {
					return rt
				}
			}
		} else {
			ci++
			if p, err := d.Prefix(cb); err == nil {
				if e, ok := core.byLen[cb][p]; ok {
					if rt := &r.coreRoutes[e.ord]; rt.Next != nil {
						return rt
					}
				}
			}
		}
	}
	return nil
}

// sortedLengthsDesc lists a table's prefix lengths, longest first.
func sortedLengthsDesc(table map[int]map[netip.Prefix]*Route) []int {
	out := make([]int, 0, len(table))
	for bits := range table {
		out = append(out, bits)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Receive implements Device: the netfilter-ordered pipeline.
func (r *Router) Receive(ctx *Ctx, pkt Packet) {
	// Firewall drop rules run first: a blocked packet never reaches
	// conntrack or NAT.
	for _, f := range r.inputFilters {
		if drop, why := f(pkt); drop {
			ctx.Drop(pkt, why)
			return
		}
	}

	// PREROUTING, conntrack reversal: replies of tracked flows get their
	// addresses restored before any routing decision. ICMP errors about
	// masqueraded flows are re-addressed to the original LAN host.
	if r.NAT != nil {
		if pkt.Proto == ICMP {
			if p, ok := r.NAT.reverseDNATICMP(pkt); ok {
				ctx.Trace(TraceUnDNAT, p, "restoring original destination (icmp)")
				pkt = p
			}
			if p, ok := r.NAT.reverseSNATICMP(pkt); ok {
				ctx.Trace(TraceUnSNAT, p, "restoring LAN destination (icmp)")
				pkt = p
			}
		}
		if p, ok := r.NAT.reverseDNAT(pkt); ok {
			ctx.Trace(TraceUnDNAT, p, "spoofing source for intercepted flow")
			pkt = p
		}
		if p, ok := r.NAT.reverseSNAT(pkt); ok {
			ctx.Trace(TraceUnSNAT, p, "restoring LAN destination")
			pkt = p
		}
	}

	// PREROUTING, DNAT: interception happens here, before the routing
	// decision — netfilter order. The rule set sees every arriving
	// packet, including ones addressed to the router itself; that is why
	// an intercepting CPE answers a version.bind query sent to its own
	// public address (§3.2 of the paper).
	if r.NAT != nil {
		p, rewritten, replicate := r.NAT.applyDNAT(pkt)
		if rewritten {
			ctx.net.observeNAT(r.NAT)
			if ctx.net.tracing() {
				ctx.Trace(TraceDNAT, p, "intercepted: "+pkt.Dst.String()+" -> "+p.Dst.String())
			}
			if replicate {
				// The original also continues: query replication.
				r.routePacket(ctx, pkt, false)
			}
			pkt = p
		}
	}

	// Routing decision: local delivery?
	if r.addrs[pkt.Dst.Addr()] {
		r.deliverLocal(ctx, pkt)
		return
	}
	r.routePacket(ctx, pkt, false)
}

// deliverLocal hands the packet to the bound service, if any.
func (r *Router) deliverLocal(ctx *Ctx, pkt Packet) {
	s, ok := r.BoundService(pkt.Dst.Addr(), pkt.Dst.Port())
	if !ok {
		ctx.Drop(pkt, "port closed")
		return
	}
	ctx.Trace(TraceDeliver, pkt, "local service")
	s.ServeUDP(&ServiceCtx{Router: r, ctx: ctx}, pkt)
}

// routePacket forwards via the table, applying POSTROUTING SNAT.
// locallyOriginated packets skip route filters' TTL handling edge cases
// but otherwise follow the same path.
func (r *Router) routePacket(ctx *Ctx, pkt Packet, locallyOriginated bool) {
	rt := r.lookupRouteM(pkt.Dst.Addr(), ctx.net.metrics)
	if rt == nil || rt.Next == nil {
		ctx.Drop(pkt, "no route to "+pkt.Dst.Addr().String())
		return
	}
	if rt.Filter != nil {
		if drop, why := rt.Filter(pkt); drop {
			ctx.Drop(pkt, why)
			return
		}
	}
	// TTL expiry is decided before POSTROUTING so the ICMP notification
	// references the original (pre-SNAT) source.
	if !locallyOriginated && pkt.TTL <= 1 {
		expired := pkt
		expired.TTL = 0
		ctx.Trace(TraceDrop, expired, "ttl exceeded")
		if ctx.net.EmitTimeExceeded && pkt.Proto != ICMP {
			// If this very device DNATed the flow, report the client's
			// original destination in the ICMP (conntrack fixup).
			icmpRef := pkt
			if r.NAT != nil {
				key := ctKey{client: pkt.Src, target: pkt.Dst}
				if orig, ok := r.NAT.dnatCT[key]; ok {
					delete(r.NAT.dnatCT, key)
					icmpRef.Dst = orig
				}
			}
			r.sendTimeExceeded(ctx, icmpRef)
		}
		return
	}
	// POSTROUTING: masquerade LAN sources on the way out.
	if r.NAT != nil && !locallyOriginated {
		if p, ok := r.NAT.applySNAT(pkt); ok {
			ctx.net.observeNAT(r.NAT)
			if ctx.net.tracing() {
				ctx.Trace(TraceSNAT, p, "masqueraded "+pkt.Src.String()+" -> "+p.Src.String())
			}
			pkt = p
		}
	}
	if locallyOriginated {
		ctx.Emit(rt.Next, pkt)
		return
	}
	ctx.Forward(rt.Next, pkt)
}
