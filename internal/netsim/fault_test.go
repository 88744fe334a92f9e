package netsim

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// stressProfile exercises every mechanism at once with rates high
// enough that a short run shows each of them.
func stressProfile(seed int64) FaultProfile {
	return FaultProfile{
		Seed:          seed,
		PGoodBad:      0.25,
		PBadGood:      0.30,
		LossGood:      0.02,
		LossBad:       0.80,
		DupProb:       0.20,
		ReorderProb:   0.25,
		ReorderJitter: time.Millisecond,
		TruncProb:     0.20,
		TruncBytes:    4,
	}
}

// runFaultedTrace builds a fresh world with the profile installed, runs
// a fixed exchange sequence, and returns the full trace log.
func runFaultedTrace(t *testing.T, p FaultProfile) []string {
	t.Helper()
	w := buildTestWorld(t)
	w.net.SetDefaultFault(p)
	var log []string
	w.net.Tap(func(e TraceEvent) { log = append(log, e.String()) })
	for i := 0; i < 40; i++ {
		// Losses are expected; the sequence, not the outcome, is under test.
		w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte{byte(i), byte(i >> 8), 'q'}, ExchangeOptions{})
	}
	return log
}

func TestFaultTraceDeterministic(t *testing.T) {
	a := runFaultedTrace(t, stressProfile(7))
	b := runFaultedTrace(t, stressProfile(7))
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at event %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	faults := 0
	for _, line := range a {
		if strings.Contains(line, "fault:") {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("stress profile injected no faults at all")
	}
	// A different seed must actually change the fault pattern.
	c := runFaultedTrace(t, stressProfile(8))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("changing the profile seed left the trace identical")
	}
}

func TestInactiveProfileIsNoOp(t *testing.T) {
	if PresetFault(0, 1).Active() {
		t.Fatal("PresetFault(0) is active")
	}
	w := buildTestWorld(t)
	w.net.SetDefaultFault(PresetFault(0, 1))
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resps[0].Payload) != "google:q" {
		t.Errorf("payload = %q", resps[0].Payload)
	}
}

func TestBurstLossDropsEverythingAtFullRate(t *testing.T) {
	w := buildTestWorld(t)
	w.net.SetDefaultFault(FaultProfile{Seed: 1, LossGood: 1, LossBad: 1, PGoodBad: 0.5, PBadGood: 0.5})
	_, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout under total loss", err)
	}
}

func TestRateLimitExhaustsTokenBucket(t *testing.T) {
	w := buildTestWorld(t)
	// Only the resolver rate-limits: 2 tokens, no refill.
	w.net.SetDeviceFault("resolver-8888", FaultProfile{
		Seed: 1, RateLimitPort: 53, RateBurst: 2,
	})
	for i := 0; i < 2; i++ {
		if _, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); err != nil {
			t.Fatalf("query %d within burst: %v", i, err)
		}
	}
	if _, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout once the bucket is empty", err)
	}
}

func TestRateLimitRefillsPerQuery(t *testing.T) {
	w := buildTestWorld(t)
	// 1 token, one earned back every 2 queries: the pattern must be
	// deterministic pass/drop/pass/drop...
	w.net.SetDeviceFault("resolver-8888", FaultProfile{
		Seed: 1, RateLimitPort: 53, RateBurst: 1, RateRefillEvery: 2,
	})
	var got []bool
	for i := 0; i < 6; i++ {
		_, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
		got = append(got, err == nil)
	}
	// Query 1 spends the only token; every even query earns one back
	// just in time, every odd one after the first finds the bucket dry.
	want := []bool{true, true, false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pass/drop pattern = %v, want %v", got, want)
		}
	}
}

func TestDuplicationDeliversCopies(t *testing.T) {
	w := buildTestWorld(t)
	w.net.SetDeviceFault("cpe", FaultProfile{Seed: 1, DupProb: 1})
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The query duplicates once leaving the CPE (2 reach the resolver),
	// and each response duplicates again re-entering the LAN.
	if len(resps) != 4 {
		t.Fatalf("got %d responses, want 4 under always-duplicate at the CPE", len(resps))
	}
	for _, r := range resps {
		if string(r.Payload) != "google:q" {
			t.Errorf("payload = %q", r.Payload)
		}
	}
}

func TestTruncationClipsOnlyResponses(t *testing.T) {
	w := buildTestWorld(t)
	w.net.SetDeviceFault("cpe", FaultProfile{Seed: 1, TruncProb: 1, TruncBytes: 4})
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("query-x"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The query (src port ephemeral) passes intact — the resolver echoed
	// the full payload — but the response is clipped at the CPE.
	if got := string(resps[0].Payload); got != "goog" {
		t.Errorf("payload = %q, want the first 4 bytes of the response", got)
	}
}

func TestReorderJitterDelaysDelivery(t *testing.T) {
	base := buildTestWorld(t)
	r0, err := base.host.Exchange(base.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := buildTestWorld(t)
	w.net.SetDefaultFault(FaultProfile{Seed: 1, ReorderProb: 1, ReorderJitter: time.Millisecond})
	r1, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].RTT() <= r0[0].RTT() {
		t.Errorf("jittered RTT %v not above clean RTT %v", r1[0].RTT(), r0[0].RTT())
	}
}

// rollFNV and flowSeedFNV are one draw of rolls and flowSeed as first
// written, over hash/fnv: the reference the inline FNV-1a must reproduce.
func rollFNV(seed int64, dev string, pkt Packet, tag byte) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(dev))
	h.Write([]byte{tag, byte(pkt.TTL), pkt.FaultSalt})
	writeAddrPortFNV(h, pkt.Src)
	writeAddrPortFNV(h, pkt.Dst)
	binary.LittleEndian.PutUint64(buf[:], uint64(len(pkt.Payload)))
	h.Write(buf[:])
	if len(pkt.Payload) >= 2 {
		h.Write(pkt.Payload[:2])
	}
	return float64(h.Sum64()>>11) / (1 << 53)
}

func flowSeedFNV(seed int64, dev string, client netip.Addr) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(dev))
	a := client.As16()
	h.Write(a[:])
	return int64(h.Sum64())
}

func writeAddrPortFNV(h hash.Hash64, ap netip.AddrPort) {
	a := ap.Addr().As16()
	h.Write(a[:])
	var p [2]byte
	binary.LittleEndian.PutUint16(p[:], ap.Port())
	h.Write(p[:])
}

// checkRolls compares the packet's one-pass draws, every tag in every
// lane, and the prefix-seeded flow seeds of both its endpoints with the
// hash/fnv reference.
func checkRolls(t testing.TB, seed int64, dev string, pkt Packet) {
	t.Helper()
	hop := hopPrefix(seed, dev)
	for _, tags := range [][3]byte{
		{tagTrunc, tagDup, tagReorder}, // the hop's pass
		{tagJitter, tagJitter, tagJitter},
		{tagDup, tagReorder, tagTrunc},
		{tagReorder, tagTrunc, tagDup},
	} {
		r0, r1, r2 := rolls(hop, &pkt, tags[0], tags[1], tags[2])
		for lane, got := range []float64{r0, r1, r2} {
			if want := rollFNV(seed, dev, pkt, tags[lane]); got != want {
				t.Fatalf("rolls(%d, %q, %v) lane %d, tag %d = %v, hash/fnv gives %v",
					seed, dev, pkt, lane, tags[lane], got, want)
			}
		}
	}
	for _, client := range []netip.Addr{pkt.Src.Addr(), pkt.Dst.Addr()} {
		if got, want := flowSeed(hop, client), flowSeedFNV(seed, dev, client); got != want {
			t.Fatalf("flowSeed(%d, %q, %v) = %d, hash/fnv gives %d", seed, dev, client, got, want)
		}
	}
}

func TestRollMatchesFNV(t *testing.T) {
	flows := [][2]netip.AddrPort{
		{ap("192.168.1.10:49152"), ap("8.8.8.8:53")},
		{ap("8.8.8.8:53"), ap("203.0.113.7:30001")},
		{ap("[2001:db8::10]:51000"), ap("[2001:4860:4860::8888]:53")},
		{ap("[2001:4860:4860::8888]:53"), ap("[2001:db8::10]:65535")},
		{ap("[::ffff:10.0.0.1]:28000"), ap("[::1]:0")},
		{ap("0.0.0.0:0"), ap("[::]:53")},
	}
	payloads := [][]byte{nil, {}, {0xab}, {0x12, 0x34}, []byte("\x12\x34\x01\x00query"),
		make([]byte, 1<<16-1), make([]byte, 1<<16), make([]byte, 1<<16+0x1ff)}
	devs := []string{"", "cpe", "resolver-8888", "isp-router-ü"}
	seeds := []int64{0, 1, -1, 20211102 + 9000, math.MinInt64, math.MaxInt64}
	ttls := []int{64, 0, 255, 256, -1}
	n := 0
	for _, fl := range flows {
		for _, pl := range payloads {
			for _, dev := range devs {
				for _, seed := range seeds {
					pkt := Packet{Src: fl[0], Dst: fl[1], Proto: UDP, TTL: ttls[n%len(ttls)], Payload: pl, FaultSalt: uint8(n * 37)}
					n++
					checkRolls(t, seed, dev, pkt)
				}
			}
		}
	}
}

// FuzzRoll checks the one-pass draws and the prefix-seeded flow seeds
// against hash/fnv on arbitrary packets, and on each packet's duplicate,
// whose salt wraps at 255. The endpoints are built by fuzzAddr, fams
// holding the source's family in its low two bits and the destination's
// in the next two. grow pads the payload, so lengths of 2¹⁶ and more
// are one mutation away.
func FuzzRoll(f *testing.F) {
	v4a, v4b := []byte{12: 192, 13: 168, 14: 1, 15: 10}, []byte{12: 8, 13: 8, 14: 8, 15: 8}
	v6 := netip.MustParseAddr("2001:4860:4860::8888").AsSlice()
	id := []byte("\x12\x34\x01\x00query")
	const v4v4, v6v4, mappedV6 = 0b01_01, 0b01_10, 0b10_11 // fuzzAddr families, dst then src
	f.Add(int64(20211102+9000), "cpe-17", v4a, uint16(49152), v4b, uint16(53), uint8(v4v4), 64, uint8(0), id, uint32(0))
	f.Add(int64(1), "resolver-8888", v4b, uint16(53), v4a, uint16(30001), uint8(v4v4), 0, uint8(255), id, uint32(0))
	f.Add(int64(-1), "", v6, uint16(53), v4a, uint16(65535), uint8(mappedV6), 255, uint8(255), []byte{}, uint32(0))
	f.Add(int64(math.MinInt64), "isp-router-ü", v4a, uint16(0), v6, uint16(28000), uint8(v6v4), 63, uint8(1), []byte{0xab}, uint32(0))
	f.Add(int64(math.MaxInt64), "\xff\xfe", v6, uint16(51000), v4b, uint16(53), uint8(v6v4), 1, uint8(7), id, uint32(1<<16))
	f.Fuzz(func(t *testing.T, seed int64, dev string, src []byte, sport uint16, dst []byte, dport uint16,
		fams uint8, ttl int, salt uint8, payload []byte, grow uint32) {
		payload = append(payload, make([]byte, grow%(1<<17))...)
		pkt := Packet{
			Src:   netip.AddrPortFrom(fuzzAddr(src, fams), sport),
			Dst:   netip.AddrPortFrom(fuzzAddr(dst, fams>>2), dport),
			Proto: UDP, TTL: ttl, Payload: payload, FaultSalt: salt,
		}
		checkRolls(t, seed, dev, pkt)
		pkt.FaultSalt++
		checkRolls(t, seed, dev, pkt)
	})
}

// TestTruncatedHopRollsOverClippedPayload: once a hop clips a response,
// its dup, reorder and jitter draws are those of the clipped packet, not
// of the packet as it arrived. The response's client port is picked so
// that the clipped packet's dup and reorder draws fall below the
// arriving packet's, and the probabilities sit between the two: only
// the clipped draws duplicate and reorder it.
func TestTruncatedHopRollsOverClippedPayload(t *testing.T) {
	const dev, seed, clip = "cpe", 5, 4
	var arrived, clipped Packet
	var dupP, reorderP, jitter float64
	for port := 49152; ; port++ {
		if port > 65535 {
			t.Fatal("no client port separates the clipped draws from the arriving ones")
		}
		arrived = Packet{
			Src: ap("8.8.8.8:53"), Dst: netip.AddrPortFrom(addr("192.168.1.10"), uint16(port)), Proto: UDP, TTL: 60,
			Payload: []byte{0x12, 0x34, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, 'a', 'n', 's'},
		}
		clipped = arrived
		clipped.Payload = arrived.Payload[:clip]
		dupC, dupA := rollFNV(seed, dev, clipped, tagDup), rollFNV(seed, dev, arrived, tagDup)
		reC, reA := rollFNV(seed, dev, clipped, tagReorder), rollFNV(seed, dev, arrived, tagReorder)
		jitter = rollFNV(seed, dev, clipped, tagJitter)
		if dupC < dupA && reC < reA && jitter != rollFNV(seed, dev, arrived, tagJitter) {
			dupP, reorderP = (dupC+dupA)/2, (reC+reA)/2
			break
		}
	}
	n := NewNetwork()
	n.SetDefaultFault(FaultProfile{
		Seed: seed, TruncProb: 1, TruncBytes: clip,
		DupProb: dupP, ReorderProb: reorderP, ReorderJitter: time.Second,
	})
	cpe, host := NewRouter(dev, addr("192.168.1.1")), &sinkDev{name: "host"}
	pkt := arrived
	at, ok := n.applyFaults(cpe, host, &pkt, 0)
	if !ok || string(pkt.Payload) != string(clipped.Payload) {
		t.Fatalf("hop kept %v with payload %q, want it clipped to %q", ok, pkt.Payload, clipped.Payload)
	}
	if want := time.Duration(jitter * float64(time.Second)); at != want {
		t.Errorf("delivery at %v, want %v: the clipped packet's reorder and jitter draws", at, want)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(host.got) != 1 || string(host.got[0].Payload) != string(clipped.Payload) || host.got[0].FaultSalt != 1 {
		t.Errorf("the hop sent %v, want one clipped duplicate with salt 1: the clipped packet's dup draw", host.got)
	}
}

var sinkFloat float64
var sinkSeed int64

// TestFaultPlaneAllocBudget pins the per-hop fault plane at zero
// allocations: the packet hashes, and a whole faulted hop (applyFaults),
// with a Gilbert–Elliott step and a token-bucket charge on a flow that
// already has state. The run count keeps the chain inside its lazily
// computed draws.
func TestFaultPlaneAllocBudget(t *testing.T) {
	fp := PresetFault(0.5, 1)
	pkt := Packet{
		Src: ap("192.168.1.10:49152"), Dst: ap("8.8.8.8:53"), Proto: UDP,
		TTL: 63, Payload: []byte("\x12\x34\x01\x00query"),
	}
	n := NewNetwork()
	n.SetDefaultFault(fp)
	cpe, resolver := NewRouter("cpe", addr("192.168.1.1")), NewRouter("resolver-8888", addr("8.8.8.8"))
	hop := func() {
		p := pkt
		n.applyFaults(cpe, resolver, &p, 0)
	}
	hop()
	if chains, buckets := FaultFlows(n); chains != 1 || buckets != 1 {
		t.Fatalf("one hop left %d chains and %d buckets, want 1 and 1", chains, buckets)
	}
	prefix := hopPrefix(fp.Seed, "cpe")
	for name, fn := range map[string]func(){
		"rolls":       func() { sinkFloat, _, _ = rolls(prefix, &pkt, tagTrunc, tagDup, tagReorder) },
		"flowSeed":    func() { sinkSeed = flowSeed(prefix, pkt.Src.Addr()) },
		"applyFaults": hop,
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", name, allocs)
		}
	}
	if n.queue.Len() != 0 {
		t.Fatal("the hop duplicated the packet, so the budget counts the copies' slots")
	}
	if ch := n.faults.chains.slab[0]; ch.rng.tail != nil || ch.rng.n > lfTap {
		t.Fatalf("chain left the lazy range after %d draws", ch.rng.n)
	}
	if size := unsafe.Sizeof(geChain{}); size > 24 {
		t.Errorf("geChain is %d bytes, want at most 24", size)
	}
}
