package core_test

import (
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/homelab"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

func TestVerdictPerScenario(t *testing.T) {
	for _, s := range homelab.AllScenarios {
		s := s
		t.Run(string(s), func(t *testing.T) {
			lab := homelab.New(s)
			report := lab.Detector().Run()
			if report.Verdict != homelab.ExpectedVerdict(s) {
				t.Errorf("verdict = %q, want %q\n%s", report.Verdict, homelab.ExpectedVerdict(s), report)
			}
		})
	}
}

func TestCleanReportShape(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	r := lab.Detector().Run()
	if r.Intercepted() {
		t.Fatalf("clean home reported interception: %s", r)
	}
	// 4 operators x (2 v4 + 2 v6) location probes.
	if len(r.Location) != 16 {
		t.Errorf("len(Location) = %d, want 16", len(r.Location))
	}
	for _, p := range r.Location {
		if p.Outcome != core.OutcomeAnswer || !p.Standard {
			t.Errorf("clean location probe %s/%s: outcome=%s standard=%t answer=%q",
				p.Resolver, p.Server, p.Outcome, p.Standard, p.Answer)
		}
	}
	if r.Transparency != core.TransparencyNA {
		t.Errorf("transparency = %s, want n/a", r.Transparency)
	}
	if len(r.BogonResults) != 0 || r.CPEVersionBind.Server.IsValid() {
		t.Error("steps 2/3 ran for a clean probe")
	}
}

func TestXB6ReportDetails(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	r := lab.Detector().Run()
	if r.Verdict != core.VerdictCPE {
		t.Fatalf("verdict = %s\n%s", r.Verdict, r)
	}
	if len(r.InterceptedV4) != 4 {
		t.Errorf("InterceptedV4 = %v, want all four", r.InterceptedV4)
	}
	if len(r.InterceptedV6) != 0 {
		t.Errorf("InterceptedV6 = %v, want none (XB6 bug is v4-only)", r.InterceptedV6)
	}
	if r.CPEString != "dnsmasq-2.78" {
		t.Errorf("CPEString = %q", r.CPEString)
	}
	if r.Transparency != core.Transparent {
		t.Errorf("transparency = %s, want transparent (XDNS resolves correctly)", r.Transparency)
	}
	// version.bind from CPE and from every resolver agree.
	if r.CPEVersionBind.Answer != "dnsmasq-2.78" {
		t.Errorf("CPE version.bind = %q", r.CPEVersionBind.Answer)
	}
	for _, p := range r.ResolverVersionBind {
		if p.Answer != "dnsmasq-2.78" {
			t.Errorf("resolver %s version.bind = %q", p.Resolver, p.Answer)
		}
	}
}

func TestISPMiddleboxReportDetails(t *testing.T) {
	lab := homelab.New(homelab.ISPMiddlebox)
	r := lab.Detector().Run()
	if r.Verdict != core.VerdictISP {
		t.Fatalf("verdict = %s\n%s", r.Verdict, r)
	}
	if r.CPEString != "" {
		t.Errorf("CPEString = %q, want empty", r.CPEString)
	}
	// CPE's port is closed, so its version.bind probe timed out.
	if r.CPEVersionBind.Outcome != core.OutcomeTimeout {
		t.Errorf("CPE version.bind outcome = %s, want timeout", r.CPEVersionBind.Outcome)
	}
	if len(r.BogonResults) == 0 || r.BogonResults[0].Outcome != core.OutcomeAnswer {
		t.Errorf("bogon results = %+v, want an answer", r.BogonResults)
	}
	if r.Transparency != core.Transparent {
		t.Errorf("transparency = %s", r.Transparency)
	}
}

func TestRefusingMiddleboxIsStatusModified(t *testing.T) {
	lab := homelab.New(homelab.ISPRefusing)
	r := lab.Detector().Run()
	if r.Transparency != core.StatusModified {
		t.Errorf("transparency = %s, want status modified", r.Transparency)
	}
	if r.Verdict != core.VerdictISP {
		t.Errorf("verdict = %s (refusing resolver still answers bogon queries with REFUSED)", r.Verdict)
	}
}

func TestMixedMiddleboxIsBoth(t *testing.T) {
	lab := homelab.New(homelab.ISPMixed)
	r := lab.Detector().Run()
	if r.Transparency != core.TransparencyBoth {
		t.Errorf("transparency = %s, want both\n%s", r.Transparency, r)
	}
	if len(r.InterceptedV4) != 4 {
		t.Errorf("InterceptedV4 = %v", r.InterceptedV4)
	}
}

func TestSelectiveCPEInterceptsOnlyGoogle(t *testing.T) {
	lab := homelab.New(homelab.CPESelective)
	r := lab.Detector().Run()
	if len(r.InterceptedV4) != 1 || r.InterceptedV4[0] != publicdns.Google {
		t.Fatalf("InterceptedV4 = %v, want [google]", r.InterceptedV4)
	}
	if r.Verdict != core.VerdictCPE {
		t.Errorf("verdict = %s\n%s", r.Verdict, r)
	}
}

func TestOpenForwarderNotImplicated(t *testing.T) {
	// Appendix A: an open-forwarder CPE answers version.bind on its
	// public IP, but since nothing is intercepted, step 2 never blames it.
	lab := homelab.New(homelab.OpenForwarder)
	r := lab.Detector().Run()
	if r.Verdict != core.VerdictNotIntercepted {
		t.Errorf("verdict = %s\n%s", r.Verdict, r)
	}
}

func TestChaosRelayMisclassification(t *testing.T) {
	// §6: CPE with open port 53 that forwards version.bind to the same
	// alternate resolver the ISP middlebox uses — the method blames the
	// CPE. The test pins the documented limitation.
	lab := homelab.New(homelab.CPEChaosRelay)
	r := lab.Detector().Run()
	if r.Verdict != core.VerdictCPE {
		t.Errorf("verdict = %s; the documented misclassification should occur", r.Verdict)
	}
	if r.CPEString != "unbound 1.9.0" {
		t.Errorf("CPEString = %q, want the ISP resolver's string", r.CPEString)
	}
}

func TestReplicationStillDetected(t *testing.T) {
	lab := homelab.New(homelab.Replicating)
	r := lab.Detector().Run()
	if r.Verdict != core.VerdictISP {
		t.Fatalf("verdict = %s\n%s", r.Verdict, r)
	}
	replicated := false
	for _, p := range r.Location {
		if p.Replicated {
			replicated = true
		}
	}
	if !replicated {
		t.Error("no location probe observed replication")
	}
}

func TestDetectorWithoutCPEAddressFallsBackToISP(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	d := lab.Detector()
	d.CPEPublicV4 = d.BogonV4 // zero it via a fresh struct instead
	d = &core.Detector{Client: lab.Client(), QueryV6: true}
	r := d.Run()
	// Without the CPE address the CPE test cannot run; the XB6 answers
	// bogon queries (it DNATs everything), so localization says ISP-or-
	// closer — the best the method can do without probe metadata.
	if r.Verdict != core.VerdictISP {
		t.Errorf("verdict = %s, want %s", r.Verdict, core.VerdictISP)
	}
}

func TestSubsetOfResolvers(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	d := lab.Detector()
	d.Resolvers = []publicdns.ID{publicdns.Quad9}
	r := d.Run()
	if len(r.Location) != 4 { // 2 v4 + 2 v6 for one operator
		t.Errorf("len(Location) = %d, want 4", len(r.Location))
	}
	if r.Verdict != core.VerdictCPE {
		t.Errorf("verdict = %s", r.Verdict)
	}
}

func TestV4OnlyDetector(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	d := lab.Detector()
	d.QueryV6 = false
	r := d.Run()
	if len(r.Location) != 8 {
		t.Errorf("len(Location) = %d, want 8", len(r.Location))
	}
}

func TestARecordAblationMisclassifiesOpenForwarder(t *testing.T) {
	// Appendix A's thought experiment, run for real: with an ordinary
	// A-record comparison, an open-forwarder CPE behind an ISP
	// interceptor looks exactly like a CPE interceptor...
	lab := homelab.New(homelab.CPEChaosRelay) // open CPE + ISP middlebox
	d := lab.Detector()
	if !d.CPETestWithARecord(publicdns.CanaryDomain, []publicdns.ID{publicdns.Google}) {
		t.Error("A-record test should (wrongly) match: everyone returns the same A record")
	}
	// ...and even on a completely clean path the A-record answers agree,
	// so the test is useless there too.
	clean := homelab.New(homelab.OpenForwarder)
	dc := clean.Detector()
	if !dc.CPETestWithARecord(publicdns.CanaryDomain, []publicdns.ID{publicdns.Google}) {
		t.Error("A-record test matches on clean open-forwarder homes as well")
	}
}

func TestReportString(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	r := lab.Detector().Run()
	s := r.String()
	for _, want := range []string{"intercepted by CPE", "dnsmasq-2.78", "NON-STANDARD", "version.bind"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// exchangeOnly hides a client's optional interfaces: the detector must
// reduce its Messages with ReplyOf.
type exchangeOnly struct{ c core.Client }

func (e exchangeOnly) Exchange(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, error) {
	return e.c.Exchange(server, q)
}

// rttOnly forwards Exchange and ExchangeRTT only, as a timing wrapper
// written before ReplyExchanger does.
type rttOnly struct{ c *core.SimClient }

func (r rttOnly) Exchange(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, error) {
	return r.c.Exchange(server, q)
}

func (r rttOnly) ExchangeRTT(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	return r.c.ExchangeRTT(server, q)
}

// TestReplyPathsAgree: in every scenario the report is the same whether
// the detector reduces responses in place (SimClient.ExchangeReply) or
// through ReplyOf behind a wrapper that forwards ExchangeRTT. Behind an
// Exchange-only wrapper only the RTTs are lost.
func TestReplyPathsAgree(t *testing.T) {
	for _, s := range homelab.AllScenarios {
		t.Run(string(s), func(t *testing.T) {
			want := homelab.New(s).Detector().Run()

			lab := homelab.New(s)
			d := lab.Detector()
			d.Client = rttOnly{lab.Client()}
			if got := d.Run(); !reflect.DeepEqual(got, want) {
				t.Errorf("ExchangeRTT path:\n%s\nExchangeReply path:\n%s", got, want)
			}

			lab = homelab.New(s)
			d = lab.Detector()
			d.Client = exchangeOnly{lab.Client()}
			got := d.Run()
			if got.Verdict != want.Verdict || len(got.Location) != len(want.Location) {
				t.Fatalf("Exchange path:\n%s\nExchangeReply path:\n%s", got, want)
			}
			for i := range got.Location {
				g, w := got.Location[i], want.Location[i]
				w.RTT = 0
				if g != w {
					t.Errorf("location %d: Exchange path %+v, ExchangeReply path %+v", i, g, w)
				}
			}
		})
	}
}

// emptySuccess reports success with no response at all.
type emptySuccess struct{}

func (emptySuccess) Exchange(netip.AddrPort, *dnswire.Message) ([]*dnswire.Message, error) {
	return nil, nil
}

// TestEmptySuccessIsGarbage: a transport that reports success without a
// response gave the detector nothing to read — garbage, never evidence.
func TestEmptySuccessIsGarbage(t *testing.T) {
	d := &core.Detector{Client: emptySuccess{}, Resolvers: []publicdns.ID{publicdns.Cloudflare}}
	r := d.Run()
	if r.Intercepted() || len(r.Location) == 0 {
		t.Fatalf("report:\n%s", r)
	}
	for _, p := range r.Location {
		if p.Outcome != core.OutcomeGarbage {
			t.Errorf("%s: outcome %s, want garbage", p.Server, p.Outcome)
		}
	}
}

// TestBadCanaryFailsAlikeOnEveryPath: a canary name that cannot be
// packed fails the bogon query the same way whether the detector hands
// the client wire bytes or a Message — every attempt errors, which is
// non-evidence, never a verdict.
func TestBadCanaryFailsAlikeOnEveryPath(t *testing.T) {
	run := func(wrap bool) *core.Report {
		lab := homelab.New(homelab.ISPMiddlebox)
		d := lab.Detector()
		d.CanaryName = "bad..canary"
		d.Retries = 1
		if wrap {
			d.Client = rttOnly{lab.Client()}
		}
		return d.Run()
	}
	want := run(false)
	if got := run(true); !reflect.DeepEqual(got, want) {
		t.Errorf("ExchangeRTT path:\n%s\nExchangeReply path:\n%s", got, want)
	}
	if len(want.BogonResults) == 0 || want.BogonResults[0].Outcome != core.OutcomeTimeout || want.BogonResults[0].Attempts != 2 {
		t.Errorf("bogon results %+v, want a timeout after 2 attempts", want.BogonResults)
	}
	if want.Verdict == core.VerdictISP {
		t.Errorf("verdict %s from an unsendable query", want.Verdict)
	}
}

// TestConcurrentDetectorsShareDefaultPlan: detectors of the default
// config running at once, each over its own lab, share one compiled
// query plan and report exactly what they report alone.
func TestConcurrentDetectorsShareDefaultPlan(t *testing.T) {
	want := make([]*core.Report, len(homelab.AllScenarios))
	for i, s := range homelab.AllScenarios {
		want[i] = homelab.New(s).Detector().Run()
	}
	got := make([]*core.Report, len(homelab.AllScenarios))
	var wg sync.WaitGroup
	for i, s := range homelab.AllScenarios {
		wg.Add(1)
		go func(i int, s homelab.Scenario) {
			defer wg.Done()
			got[i] = homelab.New(s).Detector().Run()
		}(i, s)
	}
	wg.Wait()
	for i, s := range homelab.AllScenarios {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s concurrently:\n%s\nalone:\n%s", s, got[i], want[i])
		}
	}
}
