package homelab

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/trace"
)

func TestAllScenariosBuild(t *testing.T) {
	for _, s := range AllScenarios {
		s := s
		t.Run(string(s), func(t *testing.T) {
			lab := New(s)
			if lab.Probe == nil || lab.CPE == nil || lab.ISP == nil || lab.Backbone == nil {
				t.Fatal("lab incompletely wired")
			}
			if lab.Scenario != s {
				t.Errorf("scenario = %s", lab.Scenario)
			}
			if !lab.Home.WANv4.IsValid() {
				t.Error("home has no WAN address")
			}
			// Every lab home is dual-stack.
			if !lab.Probe.Addr6.IsValid() {
				t.Error("probe has no v6 address")
			}
		})
	}
}

func TestExpectedVerdictCoversAllScenarios(t *testing.T) {
	for _, s := range AllScenarios {
		v := ExpectedVerdict(s)
		switch v {
		case core.VerdictNotIntercepted, core.VerdictCPE, core.VerdictISP, core.VerdictUnknown:
		default:
			t.Errorf("scenario %s has unexpected verdict %q", s, v)
		}
	}
}

func TestExpectedVerdictPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown scenario")
		}
	}()
	ExpectedVerdict(Scenario("nonsense"))
}

func TestDetectorUsesPlatformMetadata(t *testing.T) {
	lab := New(Clean)
	det := lab.Detector()
	if det.CPEPublicV4 != lab.Home.WANv4 {
		t.Errorf("detector CPE address = %s, want %s", det.CPEPublicV4, lab.Home.WANv4)
	}
	if !det.QueryV6 {
		t.Error("lab detector should query v6 (homes are dual-stack)")
	}
}

func TestLabsAreIndependent(t *testing.T) {
	// Two labs never share state: running one must not affect the other.
	a := New(XB6)
	b := New(Clean)
	ra := a.Detector().Run()
	rb := b.Detector().Run()
	if ra.Verdict != core.VerdictCPE || rb.Verdict != core.VerdictNotIntercepted {
		t.Errorf("verdicts = %s / %s", ra.Verdict, rb.Verdict)
	}
}

// TestBeyondISPLeavesResolverEgressAlone checks that the transit
// interceptor diverts only the lab home's queries: the ISP resolver's
// own recursion to the root and TLD servers crosses the same regional
// router undiverted.
func TestBeyondISPLeavesResolverEgressAlone(t *testing.T) {
	lab := New(BeyondISP)
	capture := trace.New(lab.Net, trace.Kind(netsim.TraceDNAT), 0)
	query := dnswire.NewQuery(7, "google.com", dnswire.TypeA, dnswire.ClassINET)
	resps, err := lab.Probe.Exchange(lab.Net, lab.ISP.ResolverAddrPort(), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil || len(resps) == 0 {
		t.Fatalf("query to the ISP resolver: %v (%d responses)", err, len(resps))
	}
	if n := capture.Count(trace.Addr(lab.ISP.ResolverAddr)); n != 0 {
		t.Errorf("%d ISP resolver packets DNATed:\n%s", n, capture)
	}
	// The home's own queries to a public resolver are still diverted.
	google := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	if _, err := lab.Probe.Exchange(lab.Net, google, dnswire.MustPack(query), netsim.ExchangeOptions{}); err != nil {
		t.Fatal(err)
	}
	if capture.Count(trace.Addr(lab.Home.WANv4)) == 0 {
		t.Error("the home's query to Google was not diverted")
	}
}

// TestBeyondISPAnswersRoutableCanary pins the bogon-choice ablation:
// with a routable but unowned canary in place of the bogon, the
// transit interceptor answers step 3 beyond the AS and the detector
// wrongly blames the ISP. With the default bogon it stays "unknown".
func TestBeyondISPAnswersRoutableCanary(t *testing.T) {
	lab := New(BeyondISP)
	det := lab.Detector()
	if v := det.Run().Verdict; v != core.VerdictUnknown {
		t.Errorf("bogon canary: verdict %s, want %s", v, core.VerdictUnknown)
	}
	det.BogonV4 = netip.MustParseAddr("64.87.0.1")
	if v := det.Run().Verdict; v != core.VerdictISP {
		t.Errorf("routable canary: verdict %s, want %s", v, core.VerdictISP)
	}
}
