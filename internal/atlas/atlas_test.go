package atlas

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

func newProbe(id int, avail Availability) *Probe {
	return &Probe{
		ID: id, Country: "US", ASN: 7922, Org: "Comcast",
		Region:       publicdns.RegionNA,
		WANv4:        netip.MustParseAddr("96.120.1.1"),
		Availability: avail,
	}
}

func TestProbesSortedByID(t *testing.T) {
	p := NewPlatform(netsim.NewNetwork())
	if p.Len() != 0 {
		t.Errorf("Len without a fleet = %d", p.Len())
	}
	p.Fleet = []Member{{Home: 1}, {Home: 2}, {Home: 3}}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestAvailabilityModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if !Full.Responds(rng) {
			t.Fatal("full probe failed to respond")
		}
		if Dead.Responds(rng) {
			t.Fatal("dead probe responded")
		}
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if Partial.Responds(rng) {
			hits++
		}
	}
	// PartialRespondP is 0.75.
	if hits < 650 || hits > 850 {
		t.Errorf("partial probe responded %d/1000, want ~750", hits)
	}
}

func TestAvailabilityDeterministicPerSeed(t *testing.T) {
	sample := func(seed int64) []bool {
		rng := rand.New(rand.NewSource(seed))
		out := make([]bool, 50)
		for i := range out {
			out[i] = Partial.Responds(rng)
		}
		return out
	}
	a, b := sample(7), sample(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := sample(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

// TestFullAndDeadDrawNothing: only Partial probes consume the
// availability stream, so the draws of the probes after a Full or Dead
// one do not depend on how many experiments it had.
func TestFullAndDeadDrawNothing(t *testing.T) {
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		Full.Responds(a)
		Dead.Responds(a)
	}
	if a.Int63() != b.Int63() {
		t.Error("a Full or Dead sample consumed the stream")
	}
}

func TestGroundTruthIntercepted(t *testing.T) {
	cases := map[string]bool{
		"":           false,
		"none":       false,
		"cpe":        true,
		"isp":        true,
		"isp-hidden": true,
		"transit":    true,
	}
	for loc, want := range cases {
		g := GroundTruth{Location: loc}
		if g.Intercepted() != want {
			t.Errorf("Intercepted(%q) = %t, want %t", loc, g.Intercepted(), want)
		}
	}
}

func TestDetectorConfiguredFromMetadata(t *testing.T) {
	p := NewPlatform(netsim.NewNetwork())
	probe := newProbe(1, Full)
	probe.HasIPv6 = true
	probe.Host = netsim.NewHost("h", netip.MustParseAddr("192.168.1.2"), netip.Addr{}, nil)
	det := p.Detector(probe)
	if det.CPEPublicV4 != probe.WANv4 {
		t.Errorf("detector CPE addr = %s", det.CPEPublicV4)
	}
	if !det.QueryV6 {
		t.Error("detector ignores probe v6 capability")
	}
	if det.Client == nil {
		t.Error("detector has no transport")
	}
}

// TestDetectorRebound: the platform hands out one detector and one
// client of each transport, rebound for every probe, and a rebound
// detector keeps nothing a caller set on it for the previous probe.
func TestDetectorRebound(t *testing.T) {
	p := NewPlatform(netsim.NewNetwork())
	first := newProbe(1, Full)
	first.HasIPv6 = true
	first.Host = netsim.NewHost("h1", netip.MustParseAddr("192.168.1.2"), netip.Addr{}, nil)
	det := p.Detector(first)
	det.SkipTransparency = true
	det.Retries = 3

	second := newProbe(2, Full)
	second.WANv4 = netip.MustParseAddr("96.120.1.2")
	second.Host = netsim.NewHost("h2", netip.MustParseAddr("192.168.1.3"), netip.Addr{}, nil)
	again := p.Detector(second)
	if again != det {
		t.Fatal("a second probe got a new detector")
	}
	if again.SkipTransparency || again.Retries != 0 || again.QueryV6 {
		t.Errorf("rebound detector kept the previous probe's settings: %+v", again)
	}
	if again.CPEPublicV4 != second.WANv4 {
		t.Errorf("rebound detector CPE addr = %s, want %s", again.CPEPublicV4, second.WANv4)
	}
	sim, ok := again.Client.(*core.SimClient)
	if !ok || sim.Host != second.Host {
		t.Fatalf("rebound client = %#v, want a SimClient on the second host", again.Client)
	}

	second.EncTransport = core.TransportDoTStrict
	enc, ok := p.Detector(second).Client.(*core.EncryptedClient)
	if !ok || enc.Sim != sim || enc.Mode != core.TransportDoTStrict {
		t.Fatalf("encrypted client = %#v, want the platform's over its SimClient", enc)
	}
	enc.Handshakes = 5
	if p.Detector(second).Client.(*core.EncryptedClient).Handshakes != 0 {
		t.Error("rebound encrypted client kept its counters")
	}
}

// TestMemberIsSmallAndPointerFree pins the fleet's layout: a member
// holds no pointer, so the collector never scans a fleet, and takes 8
// bytes, so a million probes cost 8 MB once per run.
func TestMemberIsSmallAndPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Member{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16:
		default:
			t.Errorf("Member.%s is a %s; members hold only small scalars", f.Name, f.Type)
		}
	}
	if size := typ.Size(); size != 8 {
		t.Errorf("Member is %d bytes, want 8", size)
	}
}
