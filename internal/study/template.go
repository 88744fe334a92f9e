package study

import (
	"time"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/backbone"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/geo"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// WorldTemplate holds everything about a study world that does not
// depend on which shard is being built: the signed backbone zones, the
// organization roster, the population plan over the dealt seats, and
// the probe fleet. All of it is immutable once NewWorldTemplate
// returns — zones are read-only after Sign, and seats are only written
// during dealing — so one template can back every shard world of a
// sharded run, built concurrently from separate goroutines.
//
// The expensive parts this amortizes are the three DNSSEC key
// generations and zone signings (the dominant cost of a backbone
// build), the seat dealing and the availability draw; each shard still
// builds its own routers, each with its own forwarding tables, and its
// own resolvers, and each measurement its own home, because those carry
// per-world mutable state.
type WorldTemplate struct {
	spec  Spec
	zones *backbone.ZoneData
	orgs  []geo.Org

	// plans is the frozen population plan: per org, the segment layout
	// and the seat probes. fleet, indexed by ID − firstProbeID, holds
	// every probe's own decisions — its segment and home number, the
	// Seed+1 draws (v6, availability class), its transport adoption and
	// its Seed-stream availability draw — one pointer-free member per
	// probe. Worlds read both and draw nothing.
	plans []orgPlan
	fleet []atlas.Member
	// drawTime is how long the availability draw took.
	drawTime time.Duration
}

// NewWorldTemplate precomputes the shard-invariant parts of a world.
// Every input to the template (Seats, Seed, weights, quotas) is
// untouched by Spec.Shard, so the template built from the unsharded
// spec serves any Shard(k, K) of it.
func NewWorldTemplate(spec Spec) *WorldTemplate {
	orgs := geo.Orgs() // descending weight, deterministic
	probesPerOrg := probeQuota(spec.TotalProbes, orgs)
	seats := dealSeats(spec, orgs, probesPerOrg)
	plans, members := planOrgs(spec, orgs, probesPerOrg, seats)
	// Transport adoption is a pure (seed, ID) hash.
	for i := range members {
		members[i].Encrypted = spec.adopts(firstProbeID + i)
	}
	drawStart := time.Now()
	drawOnline(spec.Seed, members)
	return &WorldTemplate{
		spec:     spec,
		zones:    backbone.BuildZones(),
		orgs:     orgs,
		plans:    plans,
		fleet:    members,
		drawTime: time.Since(drawStart),
	}
}

// Build constructs one world over the template. The spec must agree
// with the template's on everything except the shard selection — in
// practice it is the template's spec or a Shard() of it. The template
// is only ever read, so concurrent Builds are safe.
func (t *WorldTemplate) Build(spec Spec) *World {
	buildStart := time.Now()
	w := &World{
		Spec:    spec,
		Net:     netsim.NewNetwork(),
		ISPs:    make(map[int]*isp.Network),
		transit: make(map[publicdns.Region]*backbone.Transit),
	}
	w.Backbone = backbone.BuildWith(w.Net, t.zones)
	if spec.Fault != nil && spec.Fault.Active() {
		w.Net.SetDefaultFault(*spec.Fault)
	}
	if !spec.DisableMetrics {
		w.Metrics = metrics.New()
		w.Net.SetMetrics(w.Metrics)
		w.fwdMetrics = dnsserver.NewForwarderMetrics(w.Metrics)
		w.studyMetrics = newStudyMetrics(w.Metrics)
	}
	w.Platform = w.newPlatform(t.fleet)
	w.studyMetrics.observePredraw(t.drawTime)
	w.buildAdversaries()

	w.buildISPs(t.orgs, t.plans)
	w.buildTransitInterceptors()
	w.populatePlans(t.plans)
	w.studyMetrics.observeBuild(time.Since(buildStart))
	return w
}
