// Package atlas models a RIPE-Atlas-like measurement platform: a
// population of probe hosts scattered across countries and ISPs, with
// platform metadata (each probe's public address, AS, country) and an
// availability model — probes go offline, so each experiment reaches
// only most of the fleet, which is why the paper's Table 4 shows a
// different "Total" per resolver.
package atlas

import (
	"math/rand"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Availability classifies a probe's platform reachability for the whole
// measurement campaign.
type Availability uint8

// Availability classes.
const (
	// Full probes respond to every experiment.
	Full Availability = iota
	// Partial probes respond to each experiment independently with
	// PartialRespondP probability (flaky connectivity).
	Partial
	// Dead probes never respond.
	Dead
)

// GroundTruth records what the world builder actually installed for a
// probe — the hidden variable the measurement technique estimates.
type GroundTruth struct {
	// Location is the true interceptor location: "none", "cpe", "isp",
	// "isp-hidden" (in-AS but drops bogons), or "transit".
	Location string
	// PatternV4/V6 are the truly intercepted resolver sets.
	PatternV4 []publicdns.ID
	PatternV6 []publicdns.ID
	// Persona is the interceptor's version.bind string, if any.
	Persona string
	// RefusedV4 lists resolvers whose queries the interceptor blocks
	// rather than resolves.
	RefusedV4 []publicdns.ID
}

// Intercepted reports whether the probe is truly intercepted.
func (g GroundTruth) Intercepted() bool {
	return g.Location != "" && g.Location != "none"
}

// Probe is one vantage point.
type Probe struct {
	ID      int
	Country string
	ASN     int
	Org     string
	Region  publicdns.Region

	// HasIPv6 reports whether the probe's home has routed v6.
	HasIPv6 bool

	// WANv4 is the probe's public address — platform metadata, exactly
	// what Atlas exposes and what the CPE test (§3.2) needs.
	WANv4 netip.Addr

	// Host is the simulated device.
	Host *netsim.Host

	Availability Availability
	Truth        GroundTruth

	// EncTransport is the probe's stub-resolver transport configuration:
	// TransportDo53 (the default) or one of the encrypted modes when the
	// adoption model upgraded this probe.
	EncTransport core.TransportMode
}

// PartialRespondP is the per-experiment response probability of
// Partial probes.
const PartialRespondP = 0.75

// Responds samples whether a probe of this availability answers one
// experiment's measurement request. Only Partial probes draw from rng,
// so a campaign's draws are deterministic given the seed and the order
// the probes are sampled in.
func (a Availability) Responds(rng *rand.Rand) bool {
	switch a {
	case Full:
		return true
	case Partial:
		return rng.Float64() < PartialRespondP
	default:
		return false
	}
}

// Member is one probe's entry in a sealed fleet: what a world reads
// about the probe before it measures it. It holds no pointers, so a
// fleet of any size is one block the garbage collector never scans.
type Member struct {
	// Segment is the probe's access segment, an index into its
	// organization's segment layout, and Home is the probe's home
	// number on that segment, from 1. Together they fix the home's
	// addresses.
	Segment uint16
	Home    uint8

	Availability Availability
	HasIPv6      bool
	// Encrypted marks a probe whose stub resolver upgraded its
	// transport.
	Encrypted bool
	// Online is the probe's availability draw for the whole campaign:
	// one bit per experiment it responded to, in the bit layout of the
	// study that drew it.
	Online uint8
}

// Platform is the probe fleet plus the detectors measurements run
// from. It keeps one detector and one client of each transport and
// rebinds them for every probe, so measuring a probe allocates neither.
type Platform struct {
	// Fleet is the sealed roster, one member per probe in ID order,
	// shared read-only by every platform measuring it; nil for a
	// platform whose probes are built by hand.
	Fleet []Member

	// Retry, when non-nil, is installed on every detector the platform
	// builds — the study engine sets it when running against a faulted
	// network.
	Retry *core.RetryPolicy

	// Metrics, when non-nil, is installed on every detector the
	// platform builds, so all probes in a world share one registry.
	Metrics *core.MetricSet

	// CertOracle, when non-nil, supplies a per-probe certificate-
	// consistency oracle; built detectors get it as their CertOracle.
	CertOracle func(*Probe) core.CertOracle

	// DriftRounds is installed on every built detector: extra
	// location-enumeration rounds feeding the drift signal.
	DriftRounds int

	// EncryptedUpgrade selects which query targets a transport-upgraded
	// probe reaches over DoT/DoH — typically the public operators' known
	// anycast addresses, leaving the CPE and bogon steps on cleartext as
	// real stubs do. Nil upgrades every target.
	EncryptedUpgrade func(netip.Addr) bool

	net *netsim.Network
	det core.Detector
	sim core.SimClient
	enc core.EncryptedClient
}

// NewPlatform creates a platform over a network.
func NewPlatform(net *netsim.Network) *Platform {
	return &Platform{net: net}
}

// Len returns the fleet size.
func (p *Platform) Len() int { return len(p.Fleet) }

// Detector binds the platform's detector to a probe, configured with
// the platform's metadata about it, over the platform's SimClient for
// a Do53 probe or its EncryptedClient for a transport-upgraded one.
// Every field restarts, query IDs, the run's tally and the encrypted
// sessions and counters included, so it measures as a new detector
// would. The returned detector is valid until the next Detector call.
func (p *Platform) Detector(probe *Probe) *core.Detector {
	p.sim = core.SimClient{Net: p.net, Host: probe.Host}
	p.det = core.Detector{
		Client:      &p.sim,
		CPEPublicV4: probe.WANv4,
		QueryV6:     probe.HasIPv6,
		Retry:       p.Retry,
		Metrics:     p.Metrics,
		DriftRounds: p.DriftRounds,
	}
	if probe.EncTransport.Encrypted() {
		p.enc = core.EncryptedClient{Sim: &p.sim, Mode: probe.EncTransport, Upgrade: p.EncryptedUpgrade}
		p.det.Client = &p.enc
	}
	if p.CertOracle != nil {
		p.det.CertOracle = p.CertOracle(probe)
	}
	return &p.det
}
