package study

import (
	"time"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/backbone"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/geo"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// WorldTemplate holds everything about a study world that does not
// depend on which shard is being built: the signed backbone zones, the
// organization roster, the probe quota table, and the dealt seats. All
// of it is immutable once NewWorldTemplate returns — zones are
// read-only after Sign, and seats are only written during dealing — so
// one template can back every shard world of a sharded run, built
// concurrently from separate goroutines.
//
// The expensive parts this amortizes are the three DNSSEC key
// generations and zone signings (the dominant cost of a backbone
// build) and the seat dealing; each shard still builds its own routers
// and resolvers, and each measurement its own home, because those carry
// per-world mutable state.
type WorldTemplate struct {
	spec         Spec
	zones        *backbone.ZoneData
	orgs         []geo.Org
	probesPerOrg map[int]int
	seats        map[int][]*isp.Seat

	// plans is the frozen population plan: per org, the segment layout,
	// seat placement, and every Seed+1 RNG draw the serial build would
	// make, in order. Worlds replay it instead of drawing, and bind
	// homes from it when their probes are measured.
	plans []orgPlan

	// cores shares the backbone core and regional transit routers'
	// forwarding tables across every world built from this template: the
	// first Build records and seals them, later Builds bind devices by
	// name instead of rebuilding the prefix maps (netsim.RoutingCore).
	cores *netsim.CoreSet
}

// NewWorldTemplate precomputes the shard-invariant parts of a world.
// Every input to the template (Seats, Seed, weights, quotas) is
// untouched by Spec.Shard, so the template built from the unsharded
// spec serves any Shard(k, K) of it.
func NewWorldTemplate(spec Spec) *WorldTemplate {
	orgs := geo.Orgs() // descending weight, deterministic
	probesPerOrg := probeQuota(spec.TotalProbes, orgs)
	seats := dealSeats(spec, orgs, probesPerOrg)
	return &WorldTemplate{
		spec:         spec,
		zones:        backbone.BuildZones(),
		orgs:         orgs,
		probesPerOrg: probesPerOrg,
		seats:        seats,
		plans:        planOrgs(spec, orgs, probesPerOrg, seats),
		cores:        netsim.NewCoreSet(),
	}
}

// Build constructs one world over the template. The spec must agree
// with the template's on everything except the shard selection — in
// practice it is the template's spec or a Shard() of it. The template
// is only ever read, so concurrent Builds are safe.
func (t *WorldTemplate) Build(spec Spec) *World {
	buildStart := time.Now()
	// The first Build is the routing-core recorder; concurrent Builds
	// wait inside Begin until it seals (just after the shared routers'
	// topology is complete, below) and then bind against the sealed
	// cores. The deferred Abandon only acts if a recorder panics before
	// sealing — it releases the waiters to build unshared.
	role := t.cores.Begin()
	defer t.cores.Abandon()
	w := &World{
		Spec:    spec,
		Net:     netsim.NewNetwork(),
		ISPs:    make(map[int]*isp.Network),
		transit: make(map[publicdns.Region]*backbone.Transit),
	}
	w.Backbone = backbone.BuildWithCores(w.Net, t.zones, t.cores, role)
	if spec.Fault != nil && spec.Fault.Active() {
		w.Net.SetDefaultFault(*spec.Fault)
	}
	if !spec.DisableMetrics {
		w.Metrics = metrics.New()
		w.Net.SetMetrics(w.Metrics)
		w.fwdMetrics = dnsserver.NewForwarderMetrics(w.Metrics)
		w.studyMetrics = newStudyMetrics(w.Metrics)
	}
	w.Platform = atlas.NewPlatform(w.Net, spec.Seed)
	w.Platform.Retry = spec.Retry
	w.Platform.Metrics = core.NewMetricSet(w.Metrics)
	w.installSignals()
	w.buildAdversaries()

	w.buildISPs(t.orgs, t.plans)
	w.buildTransitInterceptors()
	// Every route the shared routers will ever carry is installed by
	// now — population below only touches segment routers, and homes
	// built during the sweep only segment and CPE routers — so the
	// recorder can seal and release any waiting builds.
	t.cores.Seal()
	w.populatePlans(t.plans)
	w.studyMetrics.observeBuild(time.Since(buildStart))
	return w
}
