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

// rollFNV and flowSeedFNV are roll and flowSeed as first written, over
// hash/fnv: the reference the inline FNV-1a must reproduce.
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

func TestRollMatchesFNV(t *testing.T) {
	flows := [][2]netip.AddrPort{
		{ap("192.168.1.10:49152"), ap("8.8.8.8:53")},
		{ap("8.8.8.8:53"), ap("203.0.113.7:30001")},
		{ap("[2001:db8::10]:51000"), ap("[2001:4860:4860::8888]:53")},
		{ap("[2001:4860:4860::8888]:53"), ap("[2001:db8::10]:65535")},
		{ap("[::ffff:10.0.0.1]:28000"), ap("[::1]:0")},
	}
	payloads := [][]byte{nil, {}, {0xab}, {0x12, 0x34}, []byte("\x12\x34\x01\x00query")}
	devs := []string{"", "cpe", "resolver-8888", "isp-router-ü"}
	seeds := []int64{0, 1, -1, 20211102 + 9000, math.MinInt64, math.MaxInt64}
	n := 0
	for _, fl := range flows {
		for _, pl := range payloads {
			for _, dev := range devs {
				for _, seed := range seeds {
					for _, tag := range []byte{tagDup, tagReorder, tagJitter, tagTrunc} {
						pkt := Packet{Src: fl[0], Dst: fl[1], Proto: UDP, TTL: 64 - n%70, Payload: pl, FaultSalt: uint8(n)}
						n++
						if got, want := roll(seed, dev, &pkt, tag), rollFNV(seed, dev, pkt, tag); got != want {
							t.Fatalf("roll(%d, %q, %v, %d) = %v, hash/fnv gives %v", seed, dev, pkt, tag, got, want)
						}
					}
					for _, client := range []netip.Addr{fl[0].Addr(), fl[1].Addr()} {
						if got, want := flowSeed(seed, dev, client), flowSeedFNV(seed, dev, client); got != want {
							t.Fatalf("flowSeed(%d, %q, %v) = %d, hash/fnv gives %d", seed, dev, client, got, want)
						}
					}
				}
			}
		}
	}
}

var sinkFloat float64
var sinkSeed int64

// TestFaultPlaneAllocBudget pins the per-hop fault decisions at zero
// allocations: the packet hashes, and a Gilbert–Elliott step plus a
// token-bucket charge on a flow that already has state. The run count
// keeps the chain inside its lazily computed draws.
func TestFaultPlaneAllocBudget(t *testing.T) {
	fp := PresetFault(0.5, 1)
	pkt := Packet{
		Src: ap("192.168.1.10:49152"), Dst: ap("8.8.8.8:53"), Proto: UDP,
		TTL: 63, Payload: []byte("\x12\x34\x01\x00query"),
	}
	f := newFaultPlane()
	f.geDrop("cpe", &fp, &pkt)
	f.allowRate("resolver-8888", &fp, &pkt)
	for name, fn := range map[string]func(){
		"roll":     func() { sinkFloat = roll(fp.Seed, "cpe", &pkt, tagDup) },
		"flowSeed": func() { sinkSeed = flowSeed(fp.Seed, "cpe", pkt.Src.Addr()) },
		"geDrop+allowRate": func() {
			f.geDrop("cpe", &fp, &pkt)
			f.allowRate("resolver-8888", &fp, &pkt)
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", name, allocs)
		}
	}
	if ch := f.chains[faultKey{dev: "cpe", client: pkt.Src.Addr()}]; ch.rng.tail != nil || ch.rng.n > lfTap {
		t.Fatalf("chain left the lazy range after %d draws", ch.rng.n)
	}
	if size := unsafe.Sizeof(geChain{}); size > 24 {
		t.Errorf("geChain is %d bytes, want at most 24", size)
	}
}
