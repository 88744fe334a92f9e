// Pooling-safety and allocation-budget tests for the zero-copy wire
// hot path. The budget tests pin the steady-state allocation counts the
// buffer pools bought; CI runs them so a regression that quietly
// reintroduces per-exchange allocations fails loudly. The safety tests
// assert the no-alias discipline: parsed responses stay valid after the
// pooled buffers behind them are recycled and reused.
package dnsloc_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	dnsloc "github.com/dnswatch/dnsloc"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/homelab"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// simExchangeAllocBudget is the acceptance gate for one end-to-end
// simulated exchange. The pre-pooling baseline was 76 allocs/op; the
// calendar-queue scheduler, the router lookup cache and the shared
// routing core brought the steady state to ~22, and the lean codec
// (exact-size Unpack over a validated View, stack compression table) to
// 16. Borrowed packets in netsim, with one reused ServiceCtx per drain,
// brought it to 14, and resolvers answering from the query's view (no
// query Unpack, no response Message) to 8, all of them now the client's
// materialized response. The budget is the measured value + 2: headroom
// for toolchain drift without letting the pools, the scheduler fast path
// or the codec silently start allocating.
const simExchangeAllocBudget = 10

// forwarderCacheHitAllocBudget bounds a CPE-forwarder cache hit, served
// by copying pre-packed wire bytes into a recycled buffer under a key
// read from the query's view. Measured steady state is 5 (18 before the
// lean codec, 9 before borrowed packets, 7 before the forwarder stopped
// decoding queries); budget is that + 2.
const forwarderCacheHitAllocBudget = 7

// packToAllocBudget bounds PackTo into a recycled buffer: compression
// runs on a stack table, so packing allocates nothing.
const packToAllocBudget = 0

// unpackLocationAllocBudget bounds Unpack of a Cloudflare location
// response (one CHAOS TXT question, one TXT answer): the message with
// its question slot, the name, the record backing, the boxed TXT body,
// its []string and the one TXT string. Measured 6.
const unpackLocationAllocBudget = 6

func TestSimExchangeAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	q := dnsloc.NewLocationQuery(dnsloc.Cloudflare, 1)
	server := netip.AddrPortFrom(netip.MustParseAddr("1.1.1.1"), 53)
	// Warm the resolver caches and the payload/packet freelists.
	for i := 0; i < 5; i++ {
		if _, err := client.Exchange(server, q); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Exchange(server, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > simExchangeAllocBudget {
		t.Errorf("SimExchange allocates %.1f/op, budget %d", allocs, simExchangeAllocBudget)
	}
}

// simExchangeReplyAllocBudget bounds one simulated exchange of packed
// query bytes reduced in place (SimClient.ExchangeReply): the query is
// copied into a recycled buffer, the resolver answers from the query's
// view, and the reply is read from the response's view. A standard
// answer is the interned string, so nothing allocates. Measured 0 once
// every bucket of the scheduler's calendar ring has held an event (the
// warm-up spans its 268 ms of virtual time); the budget is exact.
const simExchangeReplyAllocBudget = 0

func TestSimExchangeReplyAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	for _, c := range []struct {
		op     dnsloc.ResolverID
		server string
	}{
		{dnsloc.Cloudflare, "1.1.1.1"},
		{dnsloc.Google, "8.8.8.8"},
	} {
		q := dnswire.MustPack(dnsloc.NewLocationQuery(c.op, 1))
		server := netip.AddrPortFrom(netip.MustParseAddr(c.server), 53)
		var rep core.Reply
		for i := 0; i < 400; i++ {
			var err error
			if rep, err = client.ExchangeReply(server, q); err != nil {
				t.Fatal(err)
			}
		}
		if !rep.Answered || rep.Count != 1 || !dnsloc.ValidateLocationAnswer(c.op, rep.Answer) {
			t.Fatalf("%s: reply %+v, want one standard answer", c.op, rep)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := client.ExchangeReply(server, q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > simExchangeReplyAllocBudget {
			t.Errorf("%s: SimClient.ExchangeReply allocates %.1f/op, budget %d", c.op, allocs, simExchangeReplyAllocBudget)
		}
	}
}

func TestForwarderCacheHitAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	client := lab.Client()
	server := netip.AddrPortFrom(lab.CPE.Config.LANAddr, 53)
	warm := dnsloc.NewAQuery(71, string(publicdns.CanaryDomain))
	for i := 0; i < 5; i++ {
		if _, err := client.Exchange(server, warm); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Exchange(server, warm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > forwarderCacheHitAllocBudget {
		t.Errorf("forwarder cache hit allocates %.1f/op, budget %d", allocs, forwarderCacheHitAllocBudget)
	}
}

// cpeRoundTripAllocBudget bounds one steady-state round trip through an
// intercepting CPE, at the packet level: the probe's A query to a
// public resolver is diverted by the CPE's DNAT rule to its forwarder,
// answered from the forwarder's cache into a recycled buffer, and
// spoofed back through conntrack. Services, DNAT matches and route
// filters borrow the packet, so one that made a packet on the stack
// move to the heap would show here; nothing on the path allocates.
const cpeRoundTripAllocBudget = 0

func TestCPERoundTripAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	fwd := dnsserver.NewForwarderMetrics(metrics.New())
	lab.CPE.Forwarder.Metrics = fwd
	server := netip.AddrPortFrom(netip.MustParseAddr("8.8.8.8"), 53)
	query := dnswire.MustPack(dnsloc.NewAQuery(71, string(publicdns.CanaryDomain)))
	run := func() {
		payload := append(lab.Net.PayloadBuf(), query...)
		pkts, err := lab.Probe.Exchange(lab.Net, server, payload, netsim.ExchangeOptions{})
		lab.Net.RecyclePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) != 1 || pkts[0].Src != server {
			t.Fatalf("got %d responses, want one spoofed from %v", len(pkts), server)
		}
		lab.Probe.Recycle(pkts)
	}
	// Warm the forwarder cache, the freelists and the scheduler's ring.
	for i := 0; i < 400; i++ {
		run()
	}
	hits := fwd.CacheHits.Value()
	if allocs := testing.AllocsPerRun(200, run); allocs > cpeRoundTripAllocBudget {
		t.Errorf("a CPE round trip allocates %.1f/op, budget %d", allocs, cpeRoundTripAllocBudget)
	}
	if got := fwd.CacheHits.Value() - hits; got < 200 {
		t.Errorf("the forwarder answered %d of 201 round trips from its cache", got)
	}
}

// locationResponse returns the packed response to a Cloudflare location
// query, as the simulated resolver sends it.
func locationResponse(t *testing.T) *dnswire.Message {
	t.Helper()
	lab := homelab.New(homelab.Clean)
	server := netip.AddrPortFrom(netip.MustParseAddr("1.1.1.1"), 53)
	resps, err := lab.Client().Exchange(server, dnsloc.NewLocationQuery(dnsloc.Cloudflare, 1))
	if err != nil || len(resps) == 0 {
		t.Fatalf("location query: %v", err)
	}
	return resps[0]
}

func TestPackToAllocBudget(t *testing.T) {
	resp := locationResponse(t)
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = resp.PackTo(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > packToAllocBudget {
		t.Errorf("PackTo into a recycled buffer allocates %.1f/op, budget %d", allocs, packToAllocBudget)
	}
}

func TestUnpackLocationAllocBudget(t *testing.T) {
	wire, err := locationResponse(t).Pack()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dnswire.Unpack(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > unpackLocationAllocBudget {
		t.Errorf("Unpack of a location response allocates %.1f/op, budget %d", allocs, unpackLocationAllocBudget)
	}
}

// TestPooledResponsesSurviveRecycling asserts the no-alias discipline
// end to end: a parsed response must stay intact while later exchanges
// recycle and overwrite every pooled buffer that carried it. The CHAOS
// query additionally exercises the forwarder's persona answer, written
// straight into a recycled buffer.
func TestPooledResponsesSurviveRecycling(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	client := lab.Client()
	cpeAddr := netip.AddrPortFrom(lab.CPE.Config.LANAddr, 53)

	queries := []*dnswire.Message{
		dnswire.NewChaosTXTQuery(100, "version.bind"),
		dnsloc.NewAQuery(101, string(publicdns.CanaryDomain)),
		dnsloc.NewLocationQuery(dnsloc.Cloudflare, 102),
	}
	var held [][]*dnswire.Message
	var snaps [][]string
	for _, q := range queries {
		resps, err := client.Exchange(cpeAddr, q)
		if err != nil {
			t.Fatalf("exchange %d: %v", q.Header.ID, err)
		}
		held = append(held, resps)
		snaps = append(snaps, snapshot(resps))
	}

	// Churn the pools: many further exchanges, each taking and recycling
	// payload buffers and packet slices the held responses once rode in.
	for i := 0; i < 50; i++ {
		q := dnswire.NewChaosTXTQuery(uint16(1000+i), "version.bind")
		if _, err := client.Exchange(cpeAddr, q); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}

	for i, resps := range held {
		if got := snapshot(resps); !reflect.DeepEqual(got, snaps[i]) {
			t.Errorf("response %d mutated after pool reuse:\n got %v\nwant %v", i, got, snaps[i])
		}
	}
}

// TestPersonaAnswerDiffersOnlyInID asserts that the CPE's persona
// answers, written from each query's view, are byte-stable across
// queries: same wire, only the ID differs.
func TestPersonaAnswerDiffersOnlyInID(t *testing.T) {
	lab := homelab.New(homelab.XB6)
	client := lab.Client()
	cpeAddr := netip.AddrPortFrom(lab.CPE.Config.LANAddr, 53)

	var wires [][]byte
	for _, id := range []uint16{21, 22, 23} {
		resps, err := client.Exchange(cpeAddr, dnswire.NewChaosTXTQuery(id, "version.bind"))
		if err != nil || len(resps) == 0 {
			t.Fatalf("id %d: %v", id, err)
		}
		if resps[0].Header.ID != id {
			t.Fatalf("id %d: got response ID %d", id, resps[0].Header.ID)
		}
		w, err := resps[0].Pack()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, w)
	}
	for i := 1; i < len(wires); i++ {
		if len(wires[i]) != len(wires[0]) {
			t.Fatalf("wire %d length %d != %d", i, len(wires[i]), len(wires[0]))
		}
		for j := 2; j < len(wires[0]); j++ { // bytes 0-1 are the ID
			if wires[i][j] != wires[0][j] {
				t.Fatalf("wire %d differs beyond the ID at offset %d", i, j)
			}
		}
	}
}

// TestUDPClientConcurrentPooledBuffers hammers the real-socket client
// from many goroutines against a local UDP server; under -race this
// verifies the shared pack-buffer and read-buffer pools never hand the
// same storage to two exchanges at once.
func TestUDPClientConcurrentPooledBuffers(t *testing.T) {
	srv := startDroppyDNS(t, 0)
	defer srv.close()

	client := dnsloc.NewUDPClient(2e9)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id := uint16(g*100 + i + 1)
				q := dnswire.NewChaosTXTQuery(id, "version.bind")
				resps, err := client.Exchange(srv.addrPort, q)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
					return
				}
				if len(resps) == 0 || resps[0].Header.ID != id {
					errs <- fmt.Errorf("goroutine %d query %d: bad response", g, i)
					return
				}
				if got := txtString(resps[0]); got != "droppy" {
					errs <- fmt.Errorf("goroutine %d query %d: TXT %q", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// snapshot renders messages to comparable strings via a fresh pack.
func snapshot(msgs []*dnswire.Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		w, err := m.Pack()
		if err != nil {
			out[i] = "packerr: " + err.Error()
			continue
		}
		out[i] = fmt.Sprintf("%x", w)
	}
	return out
}

// txtString extracts the first TXT string of a response.
func txtString(m *dnswire.Message) string {
	for _, rr := range m.Answers {
		if txt, ok := rr.Data.(dnswire.TXTRData); ok && len(txt.Strings) > 0 {
			return txt.Strings[0]
		}
	}
	return ""
}

// detectorRunAllocBudget bounds one Detector.Run of a clean v4+v6
// probe once the lab is warm: sixteen location queries copied from the
// shared query plan, each reduced in place to an interned standard
// answer that the byte checks validate. Measured 2, the report and its
// location results (40 while every query was a Message, every answer a
// new string and the targets a fresh slice); the budget is that + 2.
const detectorRunAllocBudget = 4

func TestDetectorRunAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	d := lab.Detector()
	for i := 0; i < 50; i++ {
		if r := d.Run(); r.Intercepted() || len(r.Location) != 16 {
			t.Fatalf("clean probe report:\n%s", r)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { d.Run() })
	if allocs > detectorRunAllocBudget {
		t.Errorf("Detector.Run of a clean v4+v6 probe allocates %.1f/op, budget %d", allocs, detectorRunAllocBudget)
	}
}

// platformMeasureAllocBudget bounds binding the platform's detector and
// client to a probe and running it, on the same warm clean lab as
// TestDetectorRunAllocBudget. The platform rebinds one detector and one
// client per probe instead of allocating them (2 more allocations per
// probe before), so measuring through it costs what Detector.Run alone
// does: measured 2.
const platformMeasureAllocBudget = detectorRunAllocBudget

func TestPlatformMeasureAllocBudget(t *testing.T) {
	lab := homelab.New(homelab.Clean)
	platform := atlas.NewPlatform(lab.Net)
	probe := &atlas.Probe{ID: 1, WANv4: lab.Home.WANv4, HasIPv6: true, Host: lab.Probe}
	for i := 0; i < 50; i++ {
		if r := platform.Detector(probe).Run(); r.Intercepted() || len(r.Location) != 16 {
			t.Fatalf("clean probe report:\n%s", r)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { platform.Detector(probe).Run() })
	if allocs > platformMeasureAllocBudget {
		t.Errorf("binding and running the platform's detector allocates %.1f/op, budget %d", allocs, platformMeasureAllocBudget)
	}
	probe.EncTransport = core.TransportDoTOpportunistic
	if allocs := testing.AllocsPerRun(100, func() { platform.Detector(probe) }); allocs != 0 {
		t.Errorf("binding the encrypted client allocates %.1f/op, want 0", allocs)
	}
}

// treeWorld is a three-level DNS tree on one backbone router — root
// (198.41.0.4), com (192.5.6.30) and example.com (192.0.2.2) — with a
// recursive resolver at 10.53.0.53 and a client host.
type treeWorld struct {
	net      *netsim.Network
	client   *netsim.Host
	resolver *dnsserver.RecursiveResolver
}

func newTreeWorld() *treeWorld {
	w := &treeWorld{net: netsim.NewNetwork()}
	backbone := netsim.NewRouter("backbone")
	attach := func(name, a, prefix string, s netsim.Service) *netsim.Router {
		r := netsim.NewRouter(name, netip.MustParseAddr(a))
		if s != nil {
			r.Bind(53, s)
		}
		r.AddDefaultRoute(backbone)
		backbone.AddRoute(netip.MustParsePrefix(prefix), r)
		return r
	}
	root := dnsserver.NewZone("")
	root.Delegate("com", map[dnswire.Name][]netip.Addr{"a.gtld-servers.net": {netip.MustParseAddr("192.5.6.30")}})
	com := dnsserver.NewZone("com")
	com.Delegate("example.com", map[dnswire.Name][]netip.Addr{"ns1.example.com": {netip.MustParseAddr("192.0.2.2")}})
	ex := dnsserver.NewZone("example.com")
	ex.AddAddr("www.example.com", 300, netip.MustParseAddr("192.0.2.80"))
	ex.SetDynamic("whoami.example.com", func(q dnswire.Question, src netip.AddrPort) []dnswire.Record {
		return []dnswire.Record{{Name: q.Name, Class: dnswire.ClassINET, Data: dnswire.ARData{Addr: src.Addr()}}}
	})
	attach("root", "198.41.0.4", "198.41.0.0/24", dnsserver.NewAuthServer(root))
	attach("com", "192.5.6.30", "192.5.6.0/24", dnsserver.NewAuthServer(com))
	attach("example", "192.0.2.2", "192.0.2.0/24", dnsserver.NewAuthServer(ex))
	w.resolver = dnsserver.NewRecursiveResolver(netip.MustParseAddr("10.53.0.53"), netip.MustParseAddr("198.41.0.4"))
	attach("resolver", "10.53.0.53", "10.53.0.0/24", w.resolver)
	gw := attach("client-gw", "203.0.113.1", "203.0.113.0/24", nil)
	w.client = netsim.NewHost("client", netip.MustParseAddr("203.0.113.2"), netip.Addr{}, gw)
	gw.AddRoute(netip.MustParsePrefix("203.0.113.2/32"), w.client)
	return w
}

// ask exchanges packed query bytes with server and recycles the
// response, checking its rcode.
func (w *treeWorld) ask(t testing.TB, server string, query []byte, want dnswire.RCode) {
	pkts, err := w.client.Exchange(w.net, netip.MustParseAddrPort(server), query, netsim.ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dnswire.ParseView(pkts[0].Payload); err != nil || v.Header.RCode != want {
		t.Fatalf("answer %x (%v), want rcode %s", pkts[0].Payload, err, want)
	}
	w.client.Recycle(pkts)
}

// resolverUpstreamAllocBudget bounds what the recursive resolver
// allocates per upstream answer it reads: a resolution of a name the
// cache does not hold walks the root's referral, the com referral and
// the final answer, three upstream answers. Answers and referrals are
// read in place from the answer's view, the client's response is
// written from its query's view, and jobs, query and answer buffers are
// recycled. Measured per resolution: 4 for a TTL-0 answer (the answer
// record the resolver keeps, its slice and boxed body, and the same two
// made by the dynamic zone) and 0 for NXDOMAIN, so 1.33 per upstream
// answer at most; 15.67 while the resolver unpacked every answer and
// decoded every query. The budget is the measured value rounded up.
const resolverUpstreamAllocBudget = 2.0

func TestResolverUpstreamAllocBudget(t *testing.T) {
	w := newTreeWorld()
	for _, c := range []struct {
		name  dnswire.Name
		rc    dnswire.RCode
		flush bool // empty the cache first: the negative answer is cached
	}{
		{"whoami.example.com", dnswire.RCodeSuccess, false}, // TTL 0: never cached
		{"nx.example.com", dnswire.RCodeNameError, true},
	} {
		query := dnswire.MustPack(dnswire.NewQuery(7, c.name, dnswire.TypeA, dnswire.ClassINET))
		run := func() {
			if c.flush {
				w.resolver.FlushCache()
			}
			w.ask(t, "10.53.0.53:53", query, c.rc)
		}
		for i := 0; i < 300; i++ {
			run()
		}
		const upstreamAnswers = 3 // root referral, com referral, answer
		if perAnswer := testing.AllocsPerRun(200, run) / upstreamAnswers; perAnswer > resolverUpstreamAllocBudget {
			t.Errorf("%s: the resolver allocates %.2f per upstream answer, budget %.2f", c.name, perAnswer, resolverUpstreamAllocBudget)
		}
	}
}

// authAnswerAllocBudget bounds one authoritative answer from zone data,
// written from the query's view into a recycled buffer. Measured 0 for
// an answer and a referral and 1 for NXDOMAIN, the zone's SOA record
// boxed for the authority section (6, 4 and 7 while the server decoded
// the query and packed a response Message).
const authAnswerAllocBudget = 1

func TestAuthServerAnswerAllocBudget(t *testing.T) {
	w := newTreeWorld()
	for _, c := range []struct {
		server string
		name   dnswire.Name
		rc     dnswire.RCode
	}{
		{"192.0.2.2:53", "www.example.com", dnswire.RCodeSuccess}, // answer
		{"192.0.2.2:53", "nx.example.com", dnswire.RCodeNameError},
		{"198.41.0.4:53", "www.example.com", dnswire.RCodeSuccess}, // referral
	} {
		query := dnswire.MustPack(dnswire.NewQuery(9, c.name, dnswire.TypeA, dnswire.ClassINET))
		run := func() { w.ask(t, c.server, query, c.rc) }
		for i := 0; i < 300; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(200, run); allocs > authAnswerAllocBudget {
			t.Errorf("%s at %s: the authoritative answer allocates %.1f, budget %d", c.name, c.server, allocs, authAnswerAllocBudget)
		}
	}
}
