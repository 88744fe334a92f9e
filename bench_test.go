// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out
// and microbenchmarks of the substrates.
//
//	go test -bench=. -benchmem            # everything at default scale
//	go test -bench=Table4 -v              # regenerate + print Table 4
//
// Each TableN/FigureN benchmark measures the cost of regenerating that
// artifact and logs the rendered rows under -v. Absolute counts at
// bench scale (0.25 by default, for iteration speed) are proportional
// to the paper-scale numbers asserted in internal/study's tests.
package dnsloc_test

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	dnsloc "github.com/dnswatch/dnsloc"
	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnssec"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/homelab"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
	"github.com/dnswatch/dnsloc/internal/ttlprobe"
)

// benchScale keeps the shared study world fast enough to build inside
// the bench binary while preserving every behaviour class.
const benchScale = 0.25

var shared struct {
	once sync.Once
	res  *study.Results
}

// sharedStudy builds the bench-scale study once per bench binary.
func sharedStudy(b *testing.B) *study.Results {
	b.Helper()
	shared.once.Do(func() {
		spec := study.PaperSpec().Scale(benchScale)
		shared.res = study.Run(study.BuildWorld(spec))
	})
	return shared.res
}

// --- Table 1: location queries per operator -------------------------

// BenchmarkTable1LocationQueries measures step 1 of the technique — the
// full location-query sweep (4 operators x primary+secondary x v4+v6)
// from a clean simulated home — and prints Table 1.
func BenchmarkTable1LocationQueries(b *testing.B) {
	lab := homelab.New(homelab.Clean)
	det := lab.Detector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report := det.Run()
		if report.Intercepted() {
			b.Fatal("clean home reported interception")
		}
	}
	b.StopTimer()
	b.Log("\n" + analysis.FormatTable1())
}

// --- Tables 2 and 3: the worked example ------------------------------

// BenchmarkTable2ExampleLocation regenerates the three-probe worked
// example of §3.4 and prints Table 2.
func BenchmarkTable2ExampleLocation(b *testing.B) {
	var rows []study.ExampleRow
	for i := 0; i < b.N; i++ {
		rows = study.ExampleScenario()
	}
	b.StopTimer()
	b.Log("\n" + analysis.FormatTable2(rows))
}

// BenchmarkTable3ExampleVersionBind regenerates the worked example and
// prints Table 3 (the version.bind rows).
func BenchmarkTable3ExampleVersionBind(b *testing.B) {
	var rows []study.ExampleRow
	for i := 0; i < b.N; i++ {
		rows = study.ExampleScenario()
	}
	b.StopTimer()
	b.Log("\n" + analysis.FormatTable3(rows))
}

// --- Table 4: intercepted probes per resolver ------------------------

// BenchmarkTable4PerResolver aggregates the study into Table 4.
func BenchmarkTable4PerResolver(b *testing.B) {
	res := sharedStudy(b)
	var t4 analysis.Table4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4 = analysis.BuildTable4(res)
	}
	b.StopTimer()
	if t4.AllInterceptedV6 != 0 {
		b.Fatalf("all-four v6 = %d, want 0", t4.AllInterceptedV6)
	}
	b.ReportMetric(float64(t4.DistinctIntercepted), "intercepted")
	b.Log("\n" + analysis.FormatTable4(t4))
}

// --- Table 5: version.bind strings of CPE interceptors ---------------

// BenchmarkTable5VersionStrings aggregates the study into Table 5.
func BenchmarkTable5VersionStrings(b *testing.B) {
	res := sharedStudy(b)
	var t5 analysis.Table5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5 = analysis.BuildTable5(res)
	}
	b.StopTimer()
	b.ReportMetric(float64(t5.CPETotal), "cpe_probes")
	b.Log("\n" + analysis.FormatTable5(t5))
}

// --- Figure 3: transparency per organization -------------------------

// BenchmarkFigure3Transparency aggregates the study into Figure 3.
func BenchmarkFigure3Transparency(b *testing.B) {
	res := sharedStudy(b)
	var f3 analysis.Figure3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f3 = analysis.BuildFigure3(res, 15)
	}
	b.StopTimer()
	if len(f3.Rows) > 0 && f3.Rows[0].ASN != 7922 {
		b.Logf("note: top org is %s, not Comcast, at scale %.2f", f3.Rows[0].Org, benchScale)
	}
	b.Log("\n" + analysis.FormatFigure3(f3))
}

// --- Figure 4: interception location ---------------------------------

// BenchmarkFigure4Location aggregates the study into Figure 4.
func BenchmarkFigure4Location(b *testing.B) {
	res := sharedStudy(b)
	var f4 analysis.Figure4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 = analysis.BuildFigure4(res, 15)
	}
	b.StopTimer()
	b.ReportMetric(float64(f4.CPE), "cpe")
	b.ReportMetric(float64(f4.ISP), "isp")
	b.ReportMetric(float64(f4.Unknown), "unknown")
	b.Log("\n" + analysis.FormatFigure4(f4))
}

// --- The harness itself ----------------------------------------------

// BenchmarkPilotStudyBuildAndRun measures a complete regeneration: world
// build plus running the technique from every responding probe, at 5%
// scale per iteration.
func BenchmarkPilotStudyBuildAndRun(b *testing.B) {
	spec := study.PaperSpec().Scale(0.05)
	for i := 0; i < b.N; i++ {
		res := study.Run(study.BuildWorld(spec))
		if len(res.Intercepted()) == 0 {
			b.Fatal("no interception found")
		}
	}
	b.ReportMetric(float64(spec.TotalProbes), "probes/op")
}

// BenchmarkPilotParallel measures the sharded study engine at 1, 2, 4,
// and GOMAXPROCS workers over a 1,000-probe world (build + availability
// pre-draw + detector sweep + merge per iteration). Output is
// byte-identical at every worker count; only the wall clock moves. Run
// with -benchmem and compare against BENCH_pilot.json.
func BenchmarkPilotParallel(b *testing.B) {
	spec := study.PaperSpec().Scale(0.1)
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
				if len(res.Intercepted()) == 0 {
					b.Fatal("no interception found")
				}
			}
			b.ReportMetric(float64(spec.TotalProbes), "probes/op")
		})
	}
}

// nosyncFile/nosyncFS strip the fsync calls from the checkpoint write
// protocol while keeping every other byte of work identical — the
// control arm for measuring what durability itself costs.
type nosyncFile struct{ faultfs.File }

func (nosyncFile) Sync() error { return nil }

type nosyncFS struct{ faultfs.OS }

func (fs nosyncFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

func (nosyncFS) SyncDir(string) error { return nil }

// BenchmarkPilotStreamedCheckpointed is BenchmarkPilotStreamed at one
// worker with checkpoints every 250 records — each a sink flush plus
// the A/B slot write protocol. The fsync=on/fsync=off pair isolates
// the cost of the durability calls themselves (file fsync + directory
// fsync per checkpoint) from the rest of the checkpoint work; the
// acceptance bar for that delta is < 3%.
func BenchmarkPilotStreamedCheckpointed(b *testing.B) {
	spec := study.PaperSpec().Scale(0.1)
	for _, bc := range []struct {
		name string
		fs   faultfs.FS
	}{
		{"fsync=on", faultfs.OS{}},
		{"fsync=off", nosyncFS{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := study.RunStreamed(spec, study.StreamOptions{
					Workers: 1,
					NewAccumulator: func(int) study.Accumulator {
						return analysis.NewAccumulator()
					},
					NewSink: func(int, int, int) (study.RecordSink, error) {
						return study.NewJSONLSink(io.Discard), nil
					},
					CheckpointDir:   dir,
					CheckpointEvery: 250,
					FS:              bc.fs,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Errors) != 0 {
					b.Fatalf("stream errors: %v", res.Errors)
				}
			}
			b.ReportMetric(float64(spec.TotalProbes), "probes/op")
		})
	}
}

// BenchmarkPilotStreamed is BenchmarkPilotParallel's bounded-memory
// twin: the same 1,000-probe sweep through the streaming pipeline —
// per-record accumulator folds plus a JSONL sink write per probe,
// retaining no record slice — at 1 and 4 workers. The delta against
// BenchmarkPilotParallel at the same worker count is the whole cost of
// streaming; BENCH_pilot.json records both so the streamed/in-memory
// ratio is tracked release over release.
func BenchmarkPilotStreamed(b *testing.B) {
	spec := study.PaperSpec().Scale(0.1)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := study.RunStreamed(spec, study.StreamOptions{
					Workers: workers,
					NewAccumulator: func(int) study.Accumulator {
						return analysis.NewAccumulator()
					},
					NewSink: func(int, int, int) (study.RecordSink, error) {
						return study.NewJSONLSink(io.Discard), nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Errors) != 0 {
					b.Fatalf("stream errors: %v", res.Errors)
				}
			}
			b.ReportMetric(float64(spec.TotalProbes), "probes/op")
		})
	}
}

// BenchmarkPilotMetricsOff is the A/B partner of BenchmarkPilotParallel:
// the same 1,000-probe sweep with Spec.DisableMetrics set, so the delta
// between the two is the whole cost of the metrics plane (registry
// builds, atomic increments, and the final shard merge). EXPERIMENTS.md
// records the measured overhead.
func BenchmarkPilotMetricsOff(b *testing.B) {
	spec := study.PaperSpec().Scale(0.1)
	spec.DisableMetrics = true
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
				if len(res.Intercepted()) == 0 {
					b.Fatal("no interception found")
				}
			}
			b.ReportMetric(float64(spec.TotalProbes), "probes/op")
		})
	}
}

// --- §5 case study ----------------------------------------------------

// BenchmarkXB6CaseStudy measures one full detection run against the XB6
// home of the case study.
func BenchmarkXB6CaseStudy(b *testing.B) {
	lab := homelab.New(homelab.XB6)
	det := lab.Detector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report := det.Run()
		if report.Verdict != core.VerdictCPE {
			b.Fatalf("verdict = %s", report.Verdict)
		}
	}
}

// BenchmarkDetectorRetry measures a full detection run against the XB6
// home through a badly impaired path (PresetFault at level 0.5) with a
// three-attempt retry policy — the marginal cost of the resilience
// machinery over BenchmarkXB6CaseStudy's clean path. Fault state (burst
// chains, rate buckets) persists across iterations, so individual runs
// differ; the metrics report how often retries and degradation fired.
func BenchmarkDetectorRetry(b *testing.B) {
	lab := homelab.New(homelab.XB6)
	lab.Net.SetDefaultFault(netsim.PresetFault(0.5, 42))
	det := lab.Detector()
	det.Retry = &core.RetryPolicy{MaxAttempts: 3}
	retried, degraded := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report := det.Run()
		if report.Verdict == core.VerdictISP {
			b.Fatal("CPE interception misattributed to the ISP under faults")
		}
		for _, p := range report.Location {
			if p.Attempts > 1 {
				retried++
			}
		}
		if len(report.Faults) > 0 {
			degraded++
		}
	}
	b.ReportMetric(float64(retried)/float64(b.N), "retried/op")
	b.ReportMetric(float64(degraded)/float64(b.N), "degraded/op")
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationARecordVsVersionBind reruns Appendix A's argument:
// against an open-forwarder CPE behind an ISP interceptor, the A-record
// comparison misclassifies (metric misclassify=1) while version.bind
// comparison stays sound on the open-forwarder-only home (metric 0).
func BenchmarkAblationARecordVsVersionBind(b *testing.B) {
	b.Run("a-record", func(b *testing.B) {
		lab := homelab.New(homelab.OpenForwarder) // clean home, open port
		det := lab.Detector()
		wrong := 0
		for i := 0; i < b.N; i++ {
			if det.CPETestWithARecord(publicdns.CanaryDomain, []publicdns.ID{publicdns.Google}) {
				wrong++ // blames the CPE though nothing is intercepted
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "misclassify")
	})
	b.Run("version-bind", func(b *testing.B) {
		lab := homelab.New(homelab.OpenForwarder)
		det := lab.Detector()
		wrong := 0
		for i := 0; i < b.N; i++ {
			report := det.Run()
			if report.Verdict == core.VerdictCPE {
				wrong++
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "misclassify")
	})
}

// BenchmarkAblationResolverCount measures detection recall as the
// location-query sweep shrinks from four operators to one: selective
// interceptors (here: a Google-only CPE) escape narrow sweeps.
func BenchmarkAblationResolverCount(b *testing.B) {
	sets := map[string][]publicdns.ID{
		"1-resolver":  {publicdns.Cloudflare},
		"2-resolvers": {publicdns.Cloudflare, publicdns.Quad9},
		"4-resolvers": publicdns.All,
	}
	for name, set := range sets {
		set := set
		b.Run(name, func(b *testing.B) {
			labs := []*homelab.Lab{
				homelab.New(homelab.XB6),          // intercepts everything
				homelab.New(homelab.CPESelective), // intercepts Google only
			}
			detected := 0
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, lab := range labs {
					det := lab.Detector()
					det.Resolvers = set
					if det.Run().Intercepted() {
						detected++
					}
					total++
				}
			}
			b.ReportMetric(float64(detected)/float64(total), "recall")
		})
	}
}

// BenchmarkAblationBogonChoice shows why step 3 must use a *bogon*
// destination: with a routable-but-dead canary destination, a transit
// interceptor beyond the AS answers it and the technique wrongly
// concludes "within ISP" (metric misattribute=1). The bogon query is
// dropped at the AS border, keeping the conclusion sound.
func BenchmarkAblationBogonChoice(b *testing.B) {
	b.Run("bogon", func(b *testing.B) {
		lab := homelab.New(homelab.BeyondISP)
		det := lab.Detector()
		wrong := 0
		for i := 0; i < b.N; i++ {
			if det.Run().Verdict == core.VerdictISP {
				wrong++
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "misattribute")
	})
	b.Run("routable-dead", func(b *testing.B) {
		lab := homelab.New(homelab.BeyondISP)
		det := lab.Detector()
		det.BogonV4 = netip.MustParseAddr("64.87.0.1") // routable, unowned
		wrong := 0
		for i := 0; i < b.N; i++ {
			if det.Run().Verdict == core.VerdictISP {
				wrong++
			}
		}
		b.ReportMetric(float64(wrong)/float64(b.N), "misattribute")
	})
}

// --- §6 extensions ------------------------------------------------------

// BenchmarkTTLLadder measures the TTL-ladder hop localization against
// the XB6 home (the interceptor answers at hop 1).
func BenchmarkTTLLadder(b *testing.B) {
	lab := homelab.New(homelab.XB6)
	c := &ttlprobe.SimTTLClient{Net: lab.Net, Host: lab.Probe}
	server := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ttlprobe.Ladder(c, server, publicdns.CanaryDomain, 10)
		if err != nil || res.FirstTTL != 1 {
			b.Fatalf("ladder: %v first=%d", err, res.FirstTTL)
		}
	}
}

// BenchmarkDNSSECValidation measures a full validating-stub resolution
// (answer + DNSKEY/DS chain walk to the root) through a clean path, and
// checks that the same stub sees broken DNSSEC through an interceptor.
func BenchmarkDNSSECValidation(b *testing.B) {
	clean := homelab.New(homelab.Clean)
	stub := &dnssec.Stub{
		Client:      clean.Client(),
		Resolver:    netip.AddrPortFrom(publicdns.Lookup(publicdns.Cloudflare).V4[0], 53),
		TrustAnchor: clean.Backbone.TrustAnchor,
	}
	intercepted := homelab.New(homelab.XB6)
	badStub := &dnssec.Stub{
		Client:      intercepted.Client(),
		Resolver:    netip.AddrPortFrom(publicdns.Lookup(publicdns.Cloudflare).V4[0], 53),
		TrustAnchor: intercepted.Backbone.TrustAnchor,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := stub.Resolve(publicdns.CanaryDomain, dnswire.TypeA); !res.Secure {
			b.Fatalf("clean path insecure: %v", res.Err)
		}
		if res := badStub.Resolve(publicdns.CanaryDomain, dnswire.TypeA); res.Secure {
			b.Fatal("intercepted path validated")
		}
	}
}

// BenchmarkDoTInterception measures the DoT interception-detection
// matrix on the packet-level stream plane: a CPE terminating every
// LAN DoT session behind its own certificate, and a stub in each DoT
// profile behind it. The strict profile refuses the certificate (no
// session), the opportunistic one gets the CPE's answer to Cloudflare's
// location query, which fails validation (interception detected).
func BenchmarkDoTInterception(b *testing.B) {
	lab := homelab.New(homelab.Clean)
	cfg := cpe.NewPlain("dot-terminator", lab.Home.LANPrefix4, lab.Home.WANv4, lab.ISP.ResolverAddrPort())
	cfg.Encrypted = dnsserver.EncTerminate
	terminator := cpe.Build(cfg)
	lab.ISP.AttachCPE(lab.ISP.Segments()[0], terminator, lab.Home)
	host := terminator.AttachHost("dot-probe", 0)
	cf := publicdns.Lookup(publicdns.Cloudflare)
	exchange := func(mode core.TransportMode) ([]*dnswire.Message, error) {
		c := &core.EncryptedClient{Sim: &core.SimClient{Net: lab.Net, Host: host}, Mode: mode}
		return c.Exchange(netip.AddrPortFrom(cf.V4[0], 53), cf.Location.Message(1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := exchange(core.TransportDoTOpportunistic)
		if err != nil {
			b.Fatalf("opportunistic DoT through the terminator: %v", err)
		}
		if txt, ok := resps[0].FirstTXT(); ok && cf.ValidateLocationAnswer(txt) {
			b.Fatal("opportunistic DoT interception not detected")
		}
		if _, err := exchange(core.TransportDoTStrict); !errors.Is(err, core.ErrAuthFailed) {
			b.Fatalf("strict DoT through the terminator = %v, want ErrAuthFailed", err)
		}
	}
}

// --- Substrate microbenchmarks -----------------------------------------

// BenchmarkWirePack measures DNS message encoding.
func BenchmarkWirePack(b *testing.B) {
	m := dnswire.NewTXTResponse(dnswire.NewChaosTXTQuery(1, "version.bind"), "dnsmasq-2.85")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireUnpack measures DNS message decoding.
func BenchmarkWireUnpack(b *testing.B) {
	buf := dnswire.MustPack(dnswire.NewTXTResponse(dnswire.NewChaosTXTQuery(1, "version.bind"), "dnsmasq-2.85"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimExchange measures one end-to-end simulated DNS exchange
// (host -> CPE NAT -> ISP -> transit -> anycast resolver and back).
func BenchmarkSimExchange(b *testing.B) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	q := dnsloc.NewLocationQuery(dnsloc.Cloudflare, 1)
	server := netip.AddrPortFrom(netip.MustParseAddr("1.1.1.1"), 53)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(server, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveResolution measures a full iterative resolution
// (root -> TLD -> authoritative) through an ISP resolver, cache flushed
// each iteration.
func BenchmarkRecursiveResolution(b *testing.B) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	server := lab.ISP.ResolverAddrPort()
	q := dnsloc.NewAQuery(9, string(publicdns.WhoamiDomain))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.ISP.Resolver.FlushCache()
		resps, err := client.Exchange(server, q)
		if err != nil || len(resps[0].Answers) == 0 {
			b.Fatalf("resolution failed: %v", err)
		}
	}
}

// BenchmarkDNSSECSignVerify measures one Ed25519 RRset signature and its
// verification.
func BenchmarkDNSSECSignVerify(b *testing.B) {
	key := dnssec.GenerateKey("dnsloc.com", "bench")
	rrs := []dnswire.Record{{
		Name: "canary.dnsloc.com", Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.ARData{Addr: netip.MustParseAddr("45.33.7.7")},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sigRec, err := dnssec.SignRRset(rrs, key)
		if err != nil {
			b.Fatal(err)
		}
		sig := sigRec.Data.(dnswire.RRSIGRData)
		if err := dnssec.VerifyRRset(rrs, sig, []dnswire.DNSKEYRData{key.Public}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwarderCacheHit measures a LAN lookup served from the CPE
// forwarder's cache versus the full upstream path.
func BenchmarkForwarderCacheHit(b *testing.B) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	// DHCP-style stub use: query the CPE LAN address.
	server := netip.AddrPortFrom(lab.CPE.Config.LANAddr, 53)
	warm := dnsloc.NewAQuery(71, string(publicdns.CanaryDomain))
	if _, err := client.Exchange(server, warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(server, warm); err != nil {
			b.Fatal(err)
		}
	}
}
