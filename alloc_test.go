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
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/homelab"
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
