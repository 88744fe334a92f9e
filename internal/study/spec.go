// Package study builds and runs the pilot study of §4: a synthetic
// RIPE-Atlas-like fleet of ~10,000 probes across the ISPs and countries
// of internal/geo, with transparent interceptors installed according to
// a calibrated specification, and the detection technique of
// internal/core executed from every responding probe.
//
// The specification's quotas are set so the study's aggregate outputs
// reproduce the shape of the paper's Tables 4–5 and Figures 3–4:
// 220 intercepted probes, 108 intercepted for all four resolvers,
// 49 CPE interceptors with Table 5's version.bind strings, Comcast at
// the top of the per-organization ranking, and far less interception
// over IPv6 than IPv4.
package study

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Pattern is the set of intercepted resolvers; nil means all four.
type Pattern []publicdns.ID

// SeatGroup is one row of the interception quota table.
type SeatGroup struct {
	Count int
	Loc   isp.Location
	// Pattern is the intercepted v4 resolver set; nil means all four
	// (unless V4None is set).
	Pattern Pattern
	// V4None marks a v6-only seat: no IPv4 interception at all.
	V4None bool
	// V6 is the intercepted v6 resolver set for this group (usually nil:
	// v6 interception is rare, Table 4).
	V6     Pattern
	Refuse isp.Refusal
}

// Spec parameterizes a pilot study world.
type Spec struct {
	Seed        int64
	TotalProbes int

	// ShardIndex/ShardCount select a shard-filtered build: the world is
	// dealt exactly as the unsharded build (same quotas, same seat
	// dealing, same RNG streams, one shared fleet), but it measures only
	// the probes owned by shard ShardIndex and touches no other probe.
	// ShardCount <= 1 means unsharded. Set via Shard.
	ShardIndex, ShardCount int

	// Availability model (see atlas.Availability).
	FullShare    float64
	PartialShare float64
	PartialP     float64

	// V6Share is the fraction of homes with routed IPv6.
	V6Share float64

	// Seats is the interception quota table.
	Seats []SeatGroup

	// V6Patterns are dealt to all-four transparent isp.LocISP seats, giving
	// those probes additional IPv6 interception (Table 4's v6 rows).
	V6Patterns []Pattern

	// CPEPersonas are the version.bind strings of the isp.LocCPE seats, in
	// dealing order (Table 5).
	CPEPersonas []string

	// OrgSeatWeights biases which organizations host the seats
	// (Figure 3/4's per-org ranking); ASN → weight. Organizations absent
	// from the map share a weight of 1.
	OrgSeatWeights map[int]int

	// Fault, when non-nil and active, is installed as every shard
	// network's default fault profile: the whole fleet measures through a
	// lossy, duplicating, truncating path. Fault decisions are derived
	// from per-flow content hashes, so a faulted run stays byte-identical
	// across worker counts.
	Fault *netsim.FaultProfile

	// Retry, when non-nil, is the retry policy installed on every
	// detector the run builds (see core.RetryPolicy). Nil keeps the
	// legacy single-attempt behaviour.
	Retry *core.RetryPolicy

	// ClientWrapper, when non-nil, wraps each probe's transport before
	// the detector runs — a fault/test hook (e.g. to make one probe's
	// client panic and exercise quarantine). It must be deterministic to
	// preserve the sharding contract.
	ClientWrapper func(core.Client, *atlas.Probe) core.Client

	// Adversary selects the interceptor evasion ladder rung installed on
	// every interceptor in the world — CPE forwarders on intercepting
	// seats, ISP resolvers (normal and refusing), and the transit
	// resolvers (see dnsserver.Adversary). 0 keeps today's honest
	// interceptors.
	Adversary int

	// CertCheck wires the certificate-consistency oracle into every
	// detector: each round-1 location answer is compared against the
	// identity the operator's regional site presents over an
	// authenticated out-of-band channel (core.CertOracle).
	CertCheck bool

	// DriftRounds re-issues the location enumeration this many extra
	// times per probe, feeding the longitudinal drift signal.
	DriftRounds int

	// DisableMetrics turns the observability plane off for this run:
	// no registry is built and every instrumented site reduces to one
	// nil check. Exists for the metrics-overhead A/B measurement
	// (EXPERIMENTS.md); production runs leave it false.
	DisableMetrics bool

	// Encryption, when non-nil, turns on the encrypted-transport plane:
	// an Adoption fraction of probes upgrade their stub transport, and
	// every interceptor in the world treats the encrypted channel
	// according to Policy. Nil keeps the all-Do53 world.
	Encryption *Encryption
}

// Encryption parameterizes the DoT/DoH adoption sweep: how much of the
// fleet encrypts, with which client profile, and what the middleboxes
// do about it.
type Encryption struct {
	// Adoption is the fraction of probes whose stub resolver upgrades
	// to Transport. Per-probe adoption is a pure hash of (Seed, probe
	// ID), so it is identical on every shard.
	Adoption float64
	// Transport is the upgraded probes' client mode.
	Transport core.TransportMode
	// Policy is how interception points (intercepting CPEs, ISP
	// middleboxes, transit interceptors) treat encrypted DNS flows.
	Policy dnsserver.EncryptedPolicy
}

// encPolicy is how the spec's interceptors treat encrypted DNS (pass
// when the encrypted plane is off).
func (s Spec) encPolicy() dnsserver.EncryptedPolicy {
	if s.Encryption == nil {
		return dnsserver.EncPass
	}
	return s.Encryption.Policy
}

// adopts reports whether a probe upgrades its transport under the
// spec's encryption model.
func (s Spec) adopts(probeID int) bool {
	e := s.Encryption
	if e == nil || e.Adoption <= 0 || !e.Transport.Encrypted() {
		return false
	}
	if e.Adoption >= 1 {
		return true
	}
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(s.Seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(probeID))
	h.Write(b[:])
	// Top 53 bits give a uniform [0,1) with exact float64 semantics.
	return float64(h.Sum64()>>11)/float64(1<<53) < e.Adoption
}

// Shorthands for patterns.
var (
	cf = publicdns.Cloudflare
	gg = publicdns.Google
	q9 = publicdns.Quad9
	od = publicdns.OpenDNS
)

// PaperSpec reproduces the paper's pilot study.
func PaperSpec() Spec {
	return Spec{
		Seed:         20211102, // the conference's opening day
		TotalProbes:  10000,
		FullShare:    0.954,
		PartialShare: 0.016,
		PartialP:     0.75,
		V6Share:      0.387,
		Seats: []SeatGroup{
			// All-four patterns: 108 probes (Table 4's "All Intercepted").
			{Count: 40, Loc: isp.LocCPE},
			{Count: 45, Loc: isp.LocISP},
			{Count: 10, Loc: isp.LocISP, Refuse: isp.RefuseAll},
			{Count: 5, Loc: isp.LocISP, Refuse: isp.RefuseSubset},
			{Count: 5, Loc: isp.LocISPHidden},
			{Count: 3, Loc: isp.LocTransit},
			// Single-resolver patterns: Cloudflare and Google are
			// intercepted alone more often than Quad9/OpenDNS (§4.1.1).
			{Count: 3, Loc: isp.LocCPE, Pattern: Pattern{cf}},
			{Count: 9, Loc: isp.LocISP, Pattern: Pattern{cf}},
			{Count: 4, Loc: isp.LocISPHidden, Pattern: Pattern{cf}},
			{Count: 2, Loc: isp.LocTransit, Pattern: Pattern{cf}},
			{Count: 3, Loc: isp.LocCPE, Pattern: Pattern{gg}},
			{Count: 6, Loc: isp.LocISP, Pattern: Pattern{gg}},
			{Count: 2, Loc: isp.LocISPHidden, Pattern: Pattern{gg}},
			{Count: 2, Loc: isp.LocTransit, Pattern: Pattern{gg}},
			{Count: 2, Loc: isp.LocISP, Pattern: Pattern{q9}},
			{Count: 1, Loc: isp.LocISPHidden, Pattern: Pattern{q9}},
			{Count: 1, Loc: isp.LocTransit, Pattern: Pattern{q9}},
			{Count: 2, Loc: isp.LocISP, Pattern: Pattern{od}},
			{Count: 1, Loc: isp.LocISPHidden, Pattern: Pattern{od}},
			{Count: 1, Loc: isp.LocTransit, Pattern: Pattern{od}},
			// One-resolver-allowed patterns (§4.1.1's second family).
			{Count: 6, Loc: isp.LocISP, Pattern: Pattern{gg, q9, od}},
			{Count: 2, Loc: isp.LocISPHidden, Pattern: Pattern{gg, q9, od}},
			{Count: 2, Loc: isp.LocTransit, Pattern: Pattern{gg, q9, od}},
			{Count: 6, Loc: isp.LocISP, Pattern: Pattern{cf, q9, od}},
			{Count: 2, Loc: isp.LocISPHidden, Pattern: Pattern{cf, q9, od}},
			{Count: 2, Loc: isp.LocTransit, Pattern: Pattern{cf, q9, od}},
			{Count: 4, Loc: isp.LocISP, Pattern: Pattern{cf, gg, od}},
			{Count: 2, Loc: isp.LocISPHidden, Pattern: Pattern{cf, gg, od}},
			{Count: 1, Loc: isp.LocTransit, Pattern: Pattern{cf, gg, od}},
			{Count: 4, Loc: isp.LocISP, Pattern: Pattern{cf, gg, q9}},
			{Count: 2, Loc: isp.LocISPHidden, Pattern: Pattern{cf, gg, q9}},
			{Count: 1, Loc: isp.LocTransit, Pattern: Pattern{cf, gg, q9}},
			// Pair patterns.
			{Count: 3, Loc: isp.LocCPE, Pattern: Pattern{cf, gg}},
			{Count: 4, Loc: isp.LocISP, Pattern: Pattern{cf, gg}},
			{Count: 3, Loc: isp.LocISP, Pattern: Pattern{cf, gg}, Refuse: isp.RefuseAll},
			{Count: 3, Loc: isp.LocISPHidden, Pattern: Pattern{cf, gg}},
			{Count: 2, Loc: isp.LocTransit, Pattern: Pattern{cf, gg}},
			{Count: 8, Loc: isp.LocISP, Pattern: Pattern{q9, od}},
			{Count: 5, Loc: isp.LocISPHidden, Pattern: Pattern{q9, od}},
			{Count: 4, Loc: isp.LocTransit, Pattern: Pattern{q9, od}},
			// v6-only seats: interception that touches no IPv4 address at
			// all — the 7 probes that make the distinct total 220.
			{Count: 4, Loc: isp.LocISP, V4None: true, V6: Pattern{gg}},
			{Count: 3, Loc: isp.LocISP, V4None: true, V6: Pattern{cf, gg}},
		},
		V6Patterns: expandPatterns([]struct {
			n   int
			pat Pattern
		}{
			{11, Pattern{q9, od}},
			{5, Pattern{cf, gg}},
			{3, Pattern{gg}},
			{3, Pattern{cf}},
		}),
		CPEPersonas: expandStrings([]struct {
			n int
			s string
		}{
			{8, "dnsmasq-2.78"}, // the XB6's XDNS build
			{10, "dnsmasq-2.85"},
			{5, "dnsmasq-2.80"},
			{8, "dnsmasq-pi-hole-2.87"},
			{4, "unbound 1.9.0"},
			{2, "unbound 1.13.1"},
			{2, "9.11.4-RedHat"},
			{1, "PowerDNS Recursor 4.1.11"},
			{1, "Q9-P-7.5"},
			{1, "9.16.15"},
			{1, "9.16.1-Debian"},
			{1, "Windows NS"},
			{1, "Microsoft"},
			{1, "new"},
			{1, "unknown"},
			{1, "none"},
			{1, "huuh?"},
		}),
		OrgSeatWeights: map[int]int{
			7922:  32, // Comcast — the top organization of Figure 3
			12389: 15, // Rostelecom
			9121:  12, // Turk Telekom
			3209:  11, // Vodafone DE
			12322: 10, // Free SAS
			3352:  9,  // Telefonica
			6830:  9,  // Liberty Global (DE)
			6327:  8,  // Shaw — §5 names it an XB6 deployer
			24560: 8,  // Airtel
			7713:  7,  // Telkom Indonesia
			8402:  7,  // Vimpelcom
			28573: 6,  // Claro BR
			1241:  6,  // OTE
			8708:  6,  // RCS & RDS
			25513: 6,  // MGTS
			17488: 5,  // Hathway
			8151:  5,  // Telmex
			3320:  4,  // Deutsche Telekom
			3215:  4,  // Orange
			2856:  3,  // BT
			3269:  3,  // Telecom Italia
			3301:  3,  // Telia
			1136:  3,  // KPN
			33915: 3,  // Ziggo
		},
	}
}

// firstProbeID is the ID planOrgs assigns the first planned probe.
// Probe IDs are contiguous from here, which is what makes shard ranks
// computable arithmetically from an ID.
const firstProbeID = 1000

// Shard returns the spec restricted to shard k of total. The shard owns
// every probe whose ID falls on it round-robin, so seat probes (created
// first within each organization) spread evenly over shards. Building
// the sharded spec is byte-identical to the unsharded build for the
// probes the shard owns.
func (s Spec) Shard(k, total int) Spec {
	s.ShardIndex, s.ShardCount = k, total
	return s
}

// owns reports whether this spec's shard instantiates the probe.
func (s Spec) owns(probeID int) bool {
	return s.ShardCount <= 1 || probeID%s.ShardCount == s.ShardIndex
}

// shardResidue is the residue class of this shard's owned IDs relative
// to firstProbeID: the j-th planned probe (ID firstProbeID+j) belongs to
// the shard when j % ShardCount == shardResidue.
func (s Spec) shardResidue() int {
	K := s.ShardCount
	return ((s.ShardIndex-firstProbeID)%K + K) % K
}

// ownedIDs lays out the shard's probes among a fleet of n: IDs first,
// first+step, …, count of them, in shard-rank order.
func (s Spec) ownedIDs(n int) (first, step, count int) {
	if s.ShardCount <= 1 {
		return firstProbeID, 1, n
	}
	r := s.shardResidue()
	return firstProbeID + r, s.ShardCount, max(n-r+s.ShardCount-1, 0) / s.ShardCount
}

// TotalSeats sums the quota table.
func (s Spec) TotalSeats() int {
	t := 0
	for _, g := range s.Seats {
		t += g.Count
	}
	return t
}

// Scale returns a proportionally smaller (or larger) spec: probe count
// and every quota are scaled by f using round-half-up, keeping at least
// one seat per nonempty group. Tests use small scales for speed.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.TotalProbes = int(math.Round(float64(s.TotalProbes) * f))
	out.Seats = make([]SeatGroup, 0, len(s.Seats))
	for _, g := range s.Seats {
		n := int(math.Round(float64(g.Count) * f))
		if n == 0 && g.Count > 0 {
			n = 1
		}
		g.Count = n
		out.Seats = append(out.Seats, g)
	}
	scaleList := func(n int) int {
		m := int(math.Round(float64(n) * f))
		if m == 0 && n > 0 {
			m = 1
		}
		return m
	}
	out.V6Patterns = s.V6Patterns[:min(len(s.V6Patterns), scaleList(len(s.V6Patterns)))]
	// Personas must cover the scaled CPE seat count; repeat if short.
	cpeSeats := 0
	for _, g := range out.Seats {
		if g.Loc == isp.LocCPE {
			cpeSeats += g.Count
		}
	}
	personas := make([]string, 0, cpeSeats)
	for i := 0; i < cpeSeats; i++ {
		personas = append(personas, s.CPEPersonas[i%len(s.CPEPersonas)])
	}
	out.CPEPersonas = personas
	return out
}

// expandPatterns flattens {n, pattern} rows.
func expandPatterns(rows []struct {
	n   int
	pat Pattern
}) []Pattern {
	var out []Pattern
	for _, r := range rows {
		for i := 0; i < r.n; i++ {
			out = append(out, r.pat)
		}
	}
	return out
}

// expandStrings flattens {n, string} rows.
func expandStrings(rows []struct {
	n int
	s string
}) []string {
	var out []string
	for _, r := range rows {
		for i := 0; i < r.n; i++ {
			out = append(out, r.s)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
