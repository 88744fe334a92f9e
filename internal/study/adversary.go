package study

import (
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/bogon"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// adversarySeed offsets the adversary's deterministic draws from every
// other consumer of Spec.Seed.
const adversarySeed = 7700

// buildAdversaries pre-builds every region's model. It must run before
// the parallel population phase: adversaryFor fills the cache lazily,
// and concurrent goroutines may only read it.
func (w *World) buildAdversaries() {
	for _, region := range publicdns.Regions {
		w.adversaryFor(region)
	}
}

// adversaryFor returns the world's evasive-interceptor model for one
// region, or nil when the spec keeps interceptors honest. One instance
// per (world, region): the L4 budget map is mutable state, worlds are
// single-threaded during measurement, and the genuine answers an
// interceptor can replay are the ones its own regional vantage sees.
func (w *World) adversaryFor(region publicdns.Region) *dnsserver.Adversary {
	if w.Spec.Adversary <= 0 {
		return nil
	}
	if w.advByRegion == nil {
		w.advByRegion = make(map[publicdns.Region]*dnsserver.Adversary)
	}
	if adv, ok := w.advByRegion[region]; ok {
		return adv
	}
	adv := &dnsserver.Adversary{
		Level: w.Spec.Adversary,
		Seed:  w.Spec.Seed + adversarySeed,
		Genuine: func(target netip.Addr, name dnswire.Name) (string, dnswire.RCode, bool) {
			return publicdns.GenuineChaos(target, name, region)
		},
		Forge: publicdns.ForgeChaos,
		Bogon: bogon.Is,
	}
	w.advByRegion[region] = adv
	return adv
}

// certOracle is the study's core.CertOracle: an out-of-band strict-
// profile DoT session against the operator's regional site, from a
// vantage outside the probe's path. Port-853 traffic never matches the
// port-53 DNAT rules, and a strict session refuses any endpoint whose
// certificate does not authenticate the target address
// (netsim.StreamCert.AuthenticatesStrict) — so the only identity that
// can come back is the operator's own, no matter what the port-53 path
// does.
type certOracle struct {
	region publicdns.Region
}

// Identity implements core.CertOracle. Google and OpenDNS expose no
// identity over the authenticated channel; the cert signal is
// inconclusive for them.
func (o certOracle) Identity(id publicdns.ID, _ netip.Addr) (string, bool) {
	return publicdns.IdentityOverTLS(id, o.region)
}

// newPlatform is the world's measurement platform over fleet: the
// spec's retry policy, the world's metric handles and the spec's
// detection-signal options, installed on every detector it binds.
func (w *World) newPlatform(fleet []atlas.Member) *atlas.Platform {
	p := atlas.NewPlatform(w.Net)
	p.Fleet = fleet
	p.Retry = w.Spec.Retry
	p.Metrics = core.NewMetricSet(w.Metrics)
	p.DriftRounds = w.Spec.DriftRounds
	if w.Spec.CertCheck {
		p.CertOracle = func(pr *atlas.Probe) core.CertOracle {
			return certOracle{region: pr.Region}
		}
	}
	if w.Spec.Encryption != nil {
		// Upgraded stubs encrypt only toward the public operators' known
		// anycast addresses; the CPE version.bind step and the bogon
		// probes stay Do53, like a real stub with a DoT upstream.
		p.EncryptedUpgrade = func(a netip.Addr) bool {
			_, ok := publicdns.ByAddr(a)
			return ok
		}
	}
	return p
}
