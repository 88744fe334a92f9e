package study

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/backbone"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/geo"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// maxHomesPerSegment bounds one access segment.
const maxHomesPerSegment = 200

// World is a built pilot-study universe.
type World struct {
	Spec     Spec
	Net      *netsim.Network
	Backbone *backbone.Backbone
	Platform *atlas.Platform
	ISPs     map[int]*isp.Network

	// Metrics is the world's registry. In a sharded run each shard
	// world gets its own; the engine merges them into Results.Metrics.
	// Nil when Spec.DisableMetrics is set.
	Metrics *metrics.Registry

	transit      map[publicdns.Region]*backbone.Transit
	fwdMetrics   *dnsserver.ForwarderMetrics
	studyMetrics *studyMetrics

	// advByRegion caches the per-region evasive-interceptor models when
	// Spec.Adversary > 0 (see adversary.go). Per world: the L4 budget
	// map is mutable measurement state.
	advByRegion map[publicdns.Region]*dnsserver.Adversary

	// homes holds one pending home per owned probe, in probe-ID order:
	// what buildHome needs to bind the probe's CPE, NAT and LAN host
	// right before it is measured. home is the slot every probe's home
	// is rebound into, and homesLive counts the homes currently
	// attached, 0 or 1 (see homes.go).
	homes     []pendingHome
	home      *cpe.Device
	homesLive int
}

// ispResolverPersonas rotate across ISPs for variety in intercepted
// version.bind strings.
var ispResolverPersonas = []dnsserver.ChaosPersona{
	dnsserver.PersonaUnbound,
	dnsserver.PersonaPowerDNS,
	dnsserver.PersonaBindBare,
	dnsserver.PersonaWindows,
	dnsserver.PersonaSilent,
	dnsserver.PersonaNXDomain,
}

// BuildWorld constructs the study world from a spec. It builds a
// single-use template; sharded runs build one template and share it
// across shards (see WorldTemplate).
func BuildWorld(spec Spec) *World {
	return NewWorldTemplate(spec).Build(spec)
}

// overflowPrefixes is the overflow bank layout: bank b puts org i at
// {33+b}.i.0.0/16 / 2a0b:00ii::/48 — parallel to the primary layout,
// so no existing address moves and banks never collide across orgs.
func overflowPrefixes(block, idx int) (v4, v6 netip.Prefix) {
	v4 = netip.PrefixFrom(netip.AddrFrom4([4]byte{33 + byte(block), byte(idx), 0, 0}), 16)
	v6 = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, byte(block), 0x00, byte(idx + 1)}), 48)
	return v4, v6
}

// buildISPs attaches one AS per organization. Overflow banks for orgs
// whose scaled quota outgrows one /16 are routed here, up front, from
// the planned segment counts: bank routing mutates the shared backbone
// routers, which the routing core seals before population, so the
// Overflow callback itself is pure address arithmetic.
func (w *World) buildISPs(orgs []geo.Org, plans []orgPlan) {
	plannedSegs := make(map[int]int, len(plans))
	for i := range plans {
		plannedSegs[plans[i].org.ASN] = len(plans[i].segSpecs)
	}
	for i, org := range orgs {
		country, _ := geo.CountryByCode(org.Country)
		cfg := isp.Config{
			ASN:             org.ASN,
			Name:            org.Name,
			Country:         country.Code,
			Region:          publicdns.RegionForCountry(org.Country),
			PrefixV4:        netip.PrefixFrom(netip.AddrFrom4([4]byte{33, byte(i), 0, 0}), 16),
			PrefixV6:        netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0x00, 0x00, byte(i + 1)}), 48),
			ResolverPersona: ispResolverPersonas[i%len(ispResolverPersonas)],
		}
		// banks is how many overflow banks the org's plan will touch:
		// segment idx needs bank idx/256, so the highest planned index
		// bounds the range. A request beyond it means the plan and the
		// build drifted — fail loudly rather than route packets nowhere.
		region, idx, asn := cfg.Region, i, org.ASN
		banks := plannedSegs[asn] / 256
		cfg.Overflow = func(block int) (netip.Prefix, netip.Prefix) {
			if block > 30 { // 64.x.0.0 belongs to the transit resolvers
				panic(fmt.Sprintf("study: as%d outgrew every v4 overflow bank", asn))
			}
			if block > banks {
				panic(fmt.Sprintf("study: as%d requested unplanned overflow bank %d (planned %d)", asn, block, banks))
			}
			return overflowPrefixes(block, idx)
		}
		n := w.Backbone.AttachISP(cfg)
		n.Resolver.Adversary = w.adversaryFor(region)
		n.Refusing.Adversary = w.adversaryFor(region)
		w.ISPs[org.ASN] = n

		regional := w.Backbone.Regional[region]
		for b := 1; b <= banks && b <= 30; b++ {
			v4, v6 := overflowPrefixes(b, idx)
			regional.AddRoute(v4, n.Border)
			w.Backbone.Core.AddRoute(v4, regional)
			regional.AddRoute(v6, n.Border)
			w.Backbone.Core.AddRoute(v6, regional)
		}
	}
}

// buildTransitInterceptors plants one interceptor per region in the
// transit network, outside every AS. It diverts only the homes of
// transit-seat probes, registered later during population.
func (w *World) buildTransitInterceptors() {
	for i, region := range publicdns.Regions {
		t := w.Backbone.AddTransit(region, w.Spec.encPolicy())
		t.Resolver.Persona = ispResolverPersonas[(i+1)%len(ispResolverPersonas)]
		t.Resolver.Adversary = w.adversaryFor(region)
		w.transit[region] = t
	}
}

// ids returns the pattern's operator set (nil = all four).
func (p Pattern) ids() []publicdns.ID {
	if p == nil {
		return publicdns.All
	}
	return p
}

// key renders a stable grouping key.
func (p Pattern) key() string {
	if p == nil {
		return "all4"
	}
	ss := make([]string, len(p))
	for i, id := range p {
		ss[i] = string(id)
	}
	sort.Strings(ss)
	return strings.Join(ss, "+")
}

// probeQuota distributes the probe population over organizations using
// country weights (largest remainder), then org weights within country.
func probeQuota(total int, orgs []geo.Org) map[int]int {
	countries := geo.Countries()
	countryProbes := largestRemainder(total, weightsOf(countries))
	out := make(map[int]int)
	for i, c := range countries {
		in := geo.OrgsIn(c.Code)
		if len(in) == 0 {
			continue
		}
		ws := make([]int, len(in))
		for j, o := range in {
			ws[j] = o.Weight
		}
		split := largestRemainder(countryProbes[i], ws)
		for j, o := range in {
			out[o.ASN] = split[j]
		}
	}
	return out
}

// weightsOf extracts country weights.
func weightsOf(cs []geo.Country) []int {
	ws := make([]int, len(cs))
	for i, c := range cs {
		ws[i] = c.Weight
	}
	return ws
}

// largestRemainder apportions total into len(weights) integer parts.
func largestRemainder(total int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	if sum == 0 || total == 0 {
		return out
	}
	type frac struct {
		idx int
		rem int
	}
	used := 0
	fracs := make([]frac, len(weights))
	for i, w := range weights {
		out[i] = total * w / sum
		used += out[i]
		fracs[i] = frac{idx: i, rem: total * w % sum}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for i := 0; i < total-used; i++ {
		out[fracs[i%len(fracs)].idx]++
	}
	return out
}

// dealSeats expands the quota table, attaches v6 patterns and personas,
// and distributes seats over organizations. It depends only on
// shard-invariant spec fields, so the result is computed once per
// template and shared read-only by every shard world.
func dealSeats(spec Spec, orgs []geo.Org, probesPerOrg map[int]int) map[int][]*isp.Seat {
	var seats []*isp.Seat
	for _, g := range spec.Seats {
		for i := 0; i < g.Count; i++ {
			seats = append(seats, &isp.Seat{
				Loc:       g.Loc,
				PatternV4: g.Pattern,
				V4None:    g.V4None,
				PatternV6: g.V6,
				Refuse:    g.Refuse,
			})
		}
	}
	// Attach the overlap v6 patterns to transparent all-four ISP seats.
	v6 := spec.V6Patterns
	for _, s := range seats {
		if len(v6) == 0 {
			break
		}
		if s.Loc == isp.LocISP && s.PatternV4 == nil && !s.V4None && s.Refuse == isp.RefuseNone && s.PatternV6 == nil {
			s.PatternV6 = v6[0]
			v6 = v6[1:]
		}
	}
	// Attach personas to CPE seats.
	personas := spec.CPEPersonas
	for _, s := range seats {
		if s.Loc != isp.LocCPE {
			continue
		}
		if len(personas) == 0 {
			s.Persona = &dnsserver.PersonaDnsmasq
			continue
		}
		s.Persona = &dnsserver.ChaosPersona{Version: personas[0]}
		personas = personas[1:]
	}

	// Per-org quotas from the seat weights, capped by population.
	weights := make([]int, len(orgs))
	for i, o := range orgs {
		wgt := spec.OrgSeatWeights[o.ASN]
		if wgt == 0 {
			wgt = 1
		}
		weights[i] = wgt
	}
	quota := largestRemainder(len(seats), weights)
	quotaByASN := make(map[int]int, len(orgs))
	for i, o := range orgs {
		q := quota[i]
		if maxSeats := probesPerOrg[o.ASN] - 1; q > maxSeats {
			q = maxSeats
		}
		if q < 0 {
			q = 0
		}
		quotaByASN[o.ASN] = q
	}

	out := make(map[int][]*isp.Seat)
	take := func(s *isp.Seat, asn int) {
		out[asn] = append(out[asn], s)
		quotaByASN[asn]--
	}

	// The XB6/XDNS seats (persona dnsmasq-2.78) go preferentially to the
	// RDK-B deployers §5 names: Comcast, Shaw, Vodafone, Liberty Global —
	// this is what puts Comcast's CPE share at the top of Figure 4.
	rdkbDeployers := []int{7922, 7922, 7922, 7922, 7922, 6327, 3209, 6830}
	rest := seats[:0:0]
	di := 0
	for _, s := range seats {
		if s.Loc == isp.LocCPE && s.Persona.Version == "dnsmasq-2.78" && di < len(rdkbDeployers) &&
			quotaByASN[rdkbDeployers[di]] > 0 {
			take(s, rdkbDeployers[di])
			di++
			continue
		}
		rest = append(rest, s)
	}
	seats = rest

	// Shuffle deterministically so each organization receives a mix of
	// locations and patterns proportional to its quota, then deal
	// round-robin over the orgs with quota left.
	shuffleRng := rand.New(rand.NewSource(spec.Seed + 2))
	shuffleRng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	for len(seats) > 0 {
		assigned := false
		for _, o := range orgs {
			if len(seats) == 0 {
				break
			}
			if quotaByASN[o.ASN] <= 0 {
				continue
			}
			take(seats[0], o.ASN)
			seats = seats[1:]
			assigned = true
		}
		if !assigned {
			break // quotas exhausted; drop any remainder (tiny worlds)
		}
	}
	return out
}

// plannedProbe is one probe's shard-invariant build decisions: its
// seat, which of the org's segments it lives on, and the RNG draws
// (v6, availability) that the serial build made from the Seed+1
// stream. Capturing the draws at plan time means no RNG call happens
// during population at all, so every shard world replays the same
// draws, whatever part of the fleet it owns.
type plannedProbe struct {
	seat     *isp.Seat
	segIndex int // index into the org plan's segSpecs
	hasV6    bool
	avail    atlas.Availability
}

// orgPlan is one organization's complete population plan, computed
// once per template and replayed read-only by every shard world.
type orgPlan struct {
	org     geo.Org
	region  publicdns.Region
	startID int
	// segSpecs lists the org's access segments in creation (index)
	// order; each entry is the seat whose interception config the
	// segment's middlebox compiles from, nil for a clean segment.
	segSpecs []*isp.Seat
	probes   []plannedProbe
}

// planOrgs consumes the Seed+1 RNG stream in the exact order the
// serial build did — per probe: the v6 draw always, the availability
// draw only for clean probes — and freezes the result into per-org
// plans. Probe IDs are assigned by prefix sum: org boundaries fall at
// the same IDs as the serial build's single running counter.
func planOrgs(spec Spec, orgs []geo.Org, probesPerOrg map[int]int, seats map[int][]*isp.Seat) []orgPlan {
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	plans := make([]orgPlan, 0, len(orgs))
	nextID := firstProbeID
	for _, org := range orgs {
		n := probesPerOrg[org.ASN]
		if n == 0 {
			continue
		}
		p := planOrg(spec, org, n, seats[org.ASN], rng)
		p.startID = nextID
		nextID += n
		plans = append(plans, p)
	}
	return plans
}

// planOrg lays out one org: seat probes first, then clean homes,
// spread over access segments. Middlebox seats are grouped by
// identical interception config; each group gets its own run of
// segments, rolled over like clean segments so a scaled-up group
// never outgrows its /24.
func planOrg(spec Spec, org geo.Org, probes int, seats []*isp.Seat, rng *rand.Rand) orgPlan {
	p := orgPlan{org: org, region: publicdns.RegionForCountry(org.Country)}
	draw := func(s *isp.Seat) {
		pp := plannedProbe{seat: s, segIndex: len(p.segSpecs) - 1, avail: atlas.Full}
		pp.hasV6 = rng.Float64() < spec.V6Share
		if s != nil && len(s.PatternV6) > 0 {
			pp.hasV6 = true
		}
		if s == nil {
			switch r := rng.Float64(); {
			case r < spec.FullShare:
			case r < spec.FullShare+spec.PartialShare:
				pp.avail = atlas.Partial
			default:
				pp.avail = atlas.Dead
			}
		}
		p.probes = append(p.probes, pp)
	}

	mbGroups := make(map[string][]*isp.Seat)
	var plainSeats []*isp.Seat // CPE + transit seats live on clean segments
	for _, s := range seats {
		switch s.Loc {
		case isp.LocISP, isp.LocISPHidden:
			k := string(s.Loc) + "|" + Pattern(s.PatternV4).key() + "|" + Pattern(s.PatternV6).key() +
				"|" + string(s.Refuse) + "|" + fmt.Sprint(s.V4None)
			mbGroups[k] = append(mbGroups[k], s)
		default:
			plainSeats = append(plainSeats, s)
		}
	}
	keys := make([]string, 0, len(mbGroups))
	for k := range mbGroups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	created := 0
	for _, k := range keys {
		group := mbGroups[k]
		for gi, s := range group {
			if gi%maxHomesPerSegment == 0 {
				p.segSpecs = append(p.segSpecs, group[0])
			}
			draw(s)
			created++
		}
	}

	// Clean segments host everything else. The first is opened even for
	// an all-seat org, mirroring the serial build's segment numbering.
	p.segSpecs = append(p.segSpecs, nil)
	inSeg := 0
	for _, s := range plainSeats {
		if inSeg >= maxHomesPerSegment {
			p.segSpecs = append(p.segSpecs, nil)
			inSeg = 0
		}
		draw(s)
		inSeg++
		created++
	}
	for created < probes {
		if inSeg >= maxHomesPerSegment {
			p.segSpecs = append(p.segSpecs, nil)
			inSeg = 0
		}
		draw(nil)
		inSeg++
		created++
	}
	return p
}

// populatePlans registers every org's probes with the platform, org
// by org in plan order, so probe IDs and addresses come out exactly as
// the serial build laid them out.
func (w *World) populatePlans(plans []orgPlan) {
	w.homes = make([]pendingHome, 0, w.Spec.shardOwnedCount())
	for i := range plans {
		w.populateOrgPlan(&plans[i])
	}
}

// populateOrgPlan replays one org's plan: segments are created in
// index order, probes in plan order, exactly as the serial build
// interleaved them.
func (w *World) populateOrgPlan(plan *orgPlan) {
	network := w.ISPs[plan.org.ASN]
	nextSeg := 0
	var seg *isp.Segment
	addSeg := func() {
		seg = network.AddSegment(plan.segSpecs[nextSeg].Middlebox(w.Spec.encPolicy()))
		nextSeg++
	}
	for i := range plan.probes {
		for nextSeg <= plan.probes[i].segIndex {
			addSeg()
		}
		w.buildProbe(network, seg, plan, i)
	}
	// Trailing segments no probe landed on (an all-seat org's empty
	// clean segment) still exist in the serial layout.
	for nextSeg < len(plan.segSpecs) {
		addSeg()
	}
}

// buildProbe registers plan.probes[idx] with the platform as a
// metadata stub: the roster entry the availability stream, the
// detectors and the exports read. Its home (CPE, NAT and LAN host) is
// not built here; an owned probe gets a pending entry that buildHome
// binds into the world's home slot when the probe is measured. A nil planned seat is
// a clean probe.
func (w *World) buildProbe(network *isp.Network, seg *isp.Segment, plan *orgPlan, idx int) {
	org, region, pp := plan.org, plan.region, &plan.probes[idx]
	id := plan.startID + idx

	// Transport adoption is a pure (seed, ID) hash, so every world that
	// registers the probe agrees on it across shards.
	enc := core.TransportDo53
	if w.Spec.adopts(id) {
		enc = w.Spec.Encryption.Transport
	}

	// Every probe consumes a home allocation, owned or not: AllocHome is
	// pure address arithmetic, and burning it unconditionally keeps WAN
	// addresses identical to the unsharded build. The fault plane hashes
	// client addresses into its drop decisions, so an address that moved
	// with the shard layout would break byte-identical faulted runs.
	home := network.AllocHome(seg, pp.hasV6)
	probe := &atlas.Probe{
		ID:           id,
		Country:      org.Country,
		ASN:          org.ASN,
		Org:          org.Name,
		Region:       region,
		HasIPv6:      pp.hasV6,
		WANv4:        home.WANv4,
		Availability: pp.avail,
		EncTransport: enc,
	}
	w.Platform.Add(probe)

	// A foreign probe (another shard's) stays a bare stub: the
	// platform roster, the RNG streams, and the address allocators stay
	// aligned with the unsharded build, and the owning world produces
	// its record.
	if !w.Spec.owns(id) {
		return
	}
	s := pp.seat
	probe.Truth = truthFor(s, network)
	if s != nil && s.Loc == isp.LocTransit {
		w.transit[region].Divert(home.WANv4, s.PatternV4)
	}
	w.homes = append(w.homes, pendingHome{plan: plan, idx: idx, seg: seg, addrs: home})
}

// truthFor is a probe's ground truth from its planned seat.
func truthFor(s *isp.Seat, network *isp.Network) atlas.GroundTruth {
	truth := atlas.GroundTruth{Location: "none"}
	if s == nil {
		return truth
	}
	truth.Location = string(s.Loc)
	if !s.V4None {
		truth.PatternV4 = Pattern(s.PatternV4).ids()
	}
	truth.PatternV6 = s.PatternV6
	switch s.Refuse {
	case isp.RefuseAll:
		truth.RefusedV4 = truth.PatternV4
	case isp.RefuseSubset:
		truth.RefusedV4 = []publicdns.ID{q9, od}
	}
	if s.Loc == isp.LocCPE {
		truth.Persona = s.Persona.Version
	} else {
		truth.Persona = string(network.Resolver.Persona.Version)
	}
	return truth
}
