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

	// plans is the template's population plan, read-only. With the
	// platform's fleet it locates any owned probe's home (see homes.go).
	// home is the slot every probe's home is rebound into, and
	// homesLive counts the homes currently attached, 0 or 1.
	plans     []orgPlan
	home      *cpe.Device
	homesLive int

	// seg is the world's segment slot: the one access segment bound
	// into the world, segment segIndex of segPlan, or none while
	// segPlan is nil (see segmentFor).
	seg      isp.Segment
	segPlan  *orgPlan
	segIndex int
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
// the planned segment counts, so every backbone route is in place
// before population and the Overflow callback itself is pure address
// arithmetic.
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

// orgPlan is one organization's population plan, computed once per
// template and replayed read-only by every shard world. Its probes'
// per-probe decisions live in the template's fleet, as members
// startID, startID+1, ….
type orgPlan struct {
	org     geo.Org
	region  publicdns.Region
	startID int
	// segSpecs lists the org's access segments in creation (index)
	// order; each entry is the seat whose interception config the
	// segment's middlebox compiles from, nil for a clean segment.
	segSpecs []*isp.Seat
	// seats holds the seat of each seat probe in plan order. Seat
	// probes come first, so probe startID+i has seat seats[i] when i is
	// in range and is a clean probe otherwise.
	seats []*isp.Seat
}

// seat is the planned seat of the org's idx-th probe, nil for a clean
// probe.
func (p *orgPlan) seat(idx int) *isp.Seat {
	if idx < len(p.seats) {
		return p.seats[idx]
	}
	return nil
}

// planOrgs consumes the Seed+1 RNG stream in the exact order the
// serial build did — per probe: the v6 draw always, the availability
// draw only for clean probes — and freezes the result into per-org
// plans and the fleet's members, in probe-ID order. Probe IDs are
// assigned by prefix sum: org boundaries fall at the same IDs as the
// serial build's single running counter.
func planOrgs(spec Spec, orgs []geo.Org, probesPerOrg map[int]int, seats map[int][]*isp.Seat) ([]orgPlan, []atlas.Member) {
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	plans := make([]orgPlan, 0, len(orgs))
	members := make([]atlas.Member, 0, spec.TotalProbes)
	for _, org := range orgs {
		n := probesPerOrg[org.ASN]
		if n == 0 {
			continue
		}
		var p orgPlan
		p, members = planOrg(spec, org, n, seats[org.ASN], rng, members)
		p.startID = firstProbeID + len(members) - n
		plans = append(plans, p)
	}
	return plans, members
}

// planOrg lays out one org: seat probes first, then clean homes,
// spread over access segments, appending one member per probe to
// members. Middlebox seats are grouped by identical interception
// config; each group gets its own run of segments, rolled over like
// clean segments so a scaled-up group never outgrows its /24.
func planOrg(spec Spec, org geo.Org, probes int, seats []*isp.Seat, rng *rand.Rand, members []atlas.Member) (orgPlan, []atlas.Member) {
	p := orgPlan{org: org, region: publicdns.RegionForCountry(org.Country)}
	// A segment's probes are contiguous, so a probe's home number is
	// one more than the previous probe's on the same segment.
	home, lastSeg := 0, -1
	draw := func(s *isp.Seat) {
		if seg := len(p.segSpecs) - 1; seg != lastSeg {
			home, lastSeg = 0, seg
		}
		home++
		m := atlas.Member{Segment: uint16(lastSeg), Home: uint8(home), Availability: atlas.Full}
		m.HasIPv6 = rng.Float64() < spec.V6Share
		if s != nil {
			p.seats = append(p.seats, s)
			if len(s.PatternV6) > 0 {
				m.HasIPv6 = true
			}
		} else {
			switch r := rng.Float64(); {
			case r < spec.FullShare:
			case r < spec.FullShare+spec.PartialShare:
				m.Availability = atlas.Partial
			default:
				m.Availability = atlas.Dead
			}
		}
		members = append(members, m)
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
	return p, members
}

// drawOnline replays the campaign's availability stream over the whole
// fleet, serially in probe-ID order, and stores each probe's outcome
// as its member's Online experiment set. Per probe it samples v4 then
// (if routed) v6 for each operator; a dead probe is skipped before
// sampling. This is the order and the count of the serial campaign's
// draws from the Seed stream, so every shard reads the outcomes the
// serial run would have sampled.
func drawOnline(seed int64, members []atlas.Member) {
	rng := rand.New(rand.NewSource(seed))
	for i := range members {
		m := &members[i]
		if m.Availability == atlas.Dead {
			continue
		}
		var on ExpSet
		for op := range publicdns.All {
			if m.Availability.Responds(rng) {
				on |= expBit(op, core.V4)
			}
			if m.HasIPv6 && m.Availability.Responds(rng) {
				on |= expBit(op, core.V6)
			}
		}
		m.Online = uint8(on)
	}
}

// populatePlans registers the plan with the world. No segment and no
// probe is built here: the sweep binds each access segment when it
// reaches the segment's first probe, and a probe's addresses are a
// function of its fleet member and its segment's index. Only the
// owned transit-seat probes are looked at, because the regional
// interceptor diverts their homes by WAN address.
func (w *World) populatePlans(plans []orgPlan) {
	w.plans = plans
	for i := range plans {
		plan := &plans[i]
		for idx, s := range plan.seats {
			if id := plan.startID + idx; s.Loc == isp.LocTransit && w.Spec.owns(id) {
				w.transit[plan.region].Divert(w.homeOf(id).addrs.WANv4, s.PatternV4)
			}
		}
	}
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
