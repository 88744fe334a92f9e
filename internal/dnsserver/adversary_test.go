package dnsserver

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

var (
	advSelf    = netip.MustParseAddr("100.64.0.53")
	advTarget  = netip.MustParseAddr("8.8.8.8")
	advClient  = netip.MustParseAddr("203.0.113.7")
	advClient2 = netip.MustParseAddr("203.0.113.8")
	advBogon   = netip.MustParseAddr("192.0.2.53")
)

// advPacket builds a diverted packet: sent by client to origDst, DNATed
// to the adversary's device (self).
func advPacket(client, origDst netip.Addr) netsim.Packet {
	return netsim.Packet{
		Src:     netip.AddrPortFrom(client, 5353),
		Dst:     netip.AddrPortFrom(advSelf, 53),
		OrigDst: netip.AddrPortFrom(origDst, 53),
	}
}

// replayAdversary answers every known target with a fixed genuine TXT.
func replayAdversary(level int) *Adversary {
	return &Adversary{
		Level: level,
		Seed:  42,
		Genuine: func(target netip.Addr, name dnswire.Name) (string, dnswire.RCode, bool) {
			if target != advTarget {
				return "", 0, false
			}
			if IsIdentityQuery(name) {
				return "genuine-site", dnswire.RCodeNotImplemented, true
			}
			return "", dnswire.RCodeNotImplemented, true
		},
	}
}

// advAnswer runs the adversary's CHAOS decision on q and returns the
// response the server sends, nil when the adversary does not apply.
func advAnswer(t *testing.T, adv *Adversary, q *dnswire.Message, pkt netsim.Packet) (*dnswire.Message, bool) {
	t.Helper()
	v := viewOf(t, q)
	r, ok, drop := adv.chaosAnswer(v, pkt, advSelf)
	if !ok {
		return nil, drop
	}
	resp, err := dnswire.Unpack(replyWire(t, r, v))
	if err != nil {
		t.Fatal(err)
	}
	return resp, drop
}

func chaosTXT(t *testing.T, m *dnswire.Message) string {
	t.Helper()
	if m == nil {
		t.Fatal("nil response")
	}
	s, ok := m.FirstTXT()
	if !ok {
		t.Fatalf("response carries no TXT: %v", m)
	}
	return s
}

// TestChaosAnswerHonestPaths pins every gate that must fall through to
// the honest persona: the adversary only ever tampers with CHAOS
// debugging queries on *diverted* flows.
func TestChaosAnswerHonestPaths(t *testing.T) {
	query := dnswire.NewChaosTXTQuery(1, "id.server")
	diverted := advPacket(advClient, advTarget)
	cases := []struct {
		name string
		adv  *Adversary
		q    *dnswire.Message
		pkt  netsim.Packet
	}{
		{"nil adversary", nil, query, diverted},
		{"level zero", &Adversary{Level: 0}, query, diverted},
		{"no conntrack original destination", replayAdversary(1), query, netsim.Packet{
			Src: netip.AddrPortFrom(advClient, 5353),
			Dst: netip.AddrPortFrom(advSelf, 53),
		}},
		{"query addressed to the device itself", replayAdversary(1), query, advPacket(advClient, advSelf)},
		{"INET query on a diverted flow", replayAdversary(1),
			dnswire.NewQuery(2, "example.com", dnswire.TypeA, dnswire.ClassINET), diverted},
		{"CHAOS but not a debugging name", replayAdversary(1),
			dnswire.NewChaosTXTQuery(3, "not.a.debug.name"), diverted},
		{"unknown target with no forgery", replayAdversary(2), query,
			advPacket(advClient, netip.MustParseAddr("198.51.100.9"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, drop := advAnswer(t, tc.adv, tc.q, tc.pkt)
			if resp != nil || drop {
				t.Errorf("chaosAnswer = (%v, %v), want honest fall-through (nil, false)", resp, drop)
			}
		})
	}
}

// TestChaosAnswerReplay: at L1 the adversary answers a diverted CHAOS
// query exactly as the original target would have — TXT when the target
// answers, the target's error rcode when it does not.
func TestChaosAnswerReplay(t *testing.T) {
	adv := replayAdversary(1)

	resp, drop := advAnswer(t, adv, dnswire.NewChaosTXTQuery(1, "id.server"), advPacket(advClient, advTarget))
	if drop {
		t.Fatal("replay dropped the query")
	}
	if got := chaosTXT(t, resp); got != "genuine-site" {
		t.Errorf("replayed identity = %q, want genuine-site", got)
	}

	resp, drop = advAnswer(t, adv, dnswire.NewChaosTXTQuery(2, "version.bind"), advPacket(advClient, advTarget))
	if drop {
		t.Fatal("replay dropped the query")
	}
	if resp == nil || resp.Header.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("replayed error = %v, want NOTIMP response", resp)
	}
	if _, ok := resp.FirstTXT(); ok {
		t.Error("error replay carries TXT data")
	}
}

// TestChaosAnswerForge: at L2 forgeries are stable for retransmissions
// of one query (same ID) and fresh for new detector rounds (new ID) —
// the drift signal's hook. A declined forgery falls back to replay.
func TestChaosAnswerForge(t *testing.T) {
	adv := replayAdversary(2)
	adv.Forge = func(target netip.Addr, name dnswire.Name, draw uint64) (string, bool) {
		if !IsIdentityQuery(name) {
			return "", false
		}
		return forgeLabel(draw), true
	}

	pkt := advPacket(advClient, advTarget)
	first := chaosTXT(t, mustAnswer(t, adv, dnswire.NewChaosTXTQuery(100, "id.server"), pkt))
	retrans := chaosTXT(t, mustAnswer(t, adv, dnswire.NewChaosTXTQuery(100, "id.server"), pkt))
	if first != retrans {
		t.Errorf("retransmission saw a different forgery: %q vs %q", first, retrans)
	}
	fresh := chaosTXT(t, mustAnswer(t, adv, dnswire.NewChaosTXTQuery(101, "id.server"), pkt))
	if fresh == first {
		t.Errorf("fresh query ID saw the same forgery %q; drift has nothing to catch", fresh)
	}

	// version.bind: Forge declines, so the genuine error is replayed.
	resp := mustAnswer(t, adv, dnswire.NewChaosTXTQuery(102, "version.bind"), pkt)
	if resp.Header.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("declined forgery rcode = %v, want replayed NOTIMP", resp.Header.RCode)
	}
}

// forgeLabel renders a draw for the forge tests.
func forgeLabel(draw uint64) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 0, 16)
	for i := 0; i < 16; i++ {
		b = append(b, hex[draw&0xf])
		draw >>= 4
	}
	return string(b)
}

func mustAnswer(t *testing.T, adv *Adversary, q *dnswire.Message, pkt netsim.Packet) *dnswire.Message {
	t.Helper()
	resp, drop := advAnswer(t, adv, q, pkt)
	if drop {
		t.Fatal("query dropped")
	}
	if resp == nil {
		t.Fatal("adversary fell through to honest persona")
	}
	return resp
}

// TestChaosAnswerRateLimit: at L4 each client gets ChaosBudget answered
// CHAOS queries per device, then silence. Budgets are per (device,
// client): one client exhausting its allowance never affects another.
func TestChaosAnswerRateLimit(t *testing.T) {
	adv := replayAdversary(4)
	adv.ChaosBudget = 2
	pkt := advPacket(advClient, advTarget)

	for i := 0; i < 2; i++ {
		resp, drop := advAnswer(t, adv, dnswire.NewChaosTXTQuery(uint16(i), "id.server"), pkt)
		if drop || resp == nil {
			t.Fatalf("query %d within budget: resp=%v drop=%v", i, resp, drop)
		}
	}
	resp, drop := advAnswer(t, adv, dnswire.NewChaosTXTQuery(9, "id.server"), pkt)
	if !drop || resp != nil {
		t.Fatalf("query past budget: resp=%v drop=%v, want silent drop", resp, drop)
	}

	// A different client starts with a fresh budget.
	other := advPacket(advClient2, advTarget)
	resp, drop = advAnswer(t, adv, dnswire.NewChaosTXTQuery(10, "id.server"), other)
	if drop || resp == nil {
		t.Fatalf("second client's first query: resp=%v drop=%v, want answered", resp, drop)
	}

	// Non-diverted queries never touch the budget.
	direct := advPacket(advClient, advSelf)
	if resp, drop := advAnswer(t, adv, dnswire.NewChaosTXTQuery(11, "id.server"), direct); resp != nil || drop {
		t.Errorf("direct query hit the adversary: resp=%v drop=%v", resp, drop)
	}
}

// TestChaosAnswerDefaultBudget: a zero ChaosBudget means
// DefaultChaosBudget, not zero tokens.
func TestChaosAnswerDefaultBudget(t *testing.T) {
	adv := replayAdversary(4)
	pkt := advPacket(advClient, advTarget)
	answered := 0
	for i := 0; i < DefaultChaosBudget+3; i++ {
		if resp, drop := advAnswer(t, adv, dnswire.NewChaosTXTQuery(uint16(i), "id.server"), pkt); resp != nil && !drop {
			answered++
		}
	}
	if answered != DefaultChaosBudget {
		t.Errorf("answered %d queries, want DefaultChaosBudget=%d", answered, DefaultChaosBudget)
	}
}

// TestAllowBogon: below L3 and for non-bogon or non-diverted traffic
// everything passes; at L3 a client's fate is a deterministic function
// of (seed, device, client), stable across retries and instances.
func TestAllowBogon(t *testing.T) {
	isBogon := func(a netip.Addr) bool { return a == advBogon }
	mk := func(level int, seed int64) *Adversary {
		return &Adversary{Level: level, Seed: seed, Bogon: isBogon}
	}
	divertedBogon := advPacket(advClient, advBogon)

	if !mk(2, 1).AllowBogon(divertedBogon, advSelf) {
		t.Error("L2 gated a bogon query; gating starts at L3")
	}
	if !mk(3, 1).AllowBogon(advPacket(advClient, advTarget), advSelf) {
		t.Error("non-bogon destination gated")
	}
	if !mk(3, 1).AllowBogon(advPacket(advClient, advSelf), advSelf) {
		t.Error("non-diverted query gated")
	}
	var nilAdv *Adversary
	if !nilAdv.AllowBogon(divertedBogon, advSelf) {
		t.Error("nil adversary gated traffic")
	}

	// Determinism: same (seed, client) always rolls the same fate, and
	// across many clients both fates occur.
	allowed := 0
	for i := 0; i < 64; i++ {
		client := netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
		pkt := advPacket(client, advBogon)
		first := mk(3, 7).AllowBogon(pkt, advSelf)
		for try := 0; try < 3; try++ {
			if got := mk(3, 7).AllowBogon(pkt, advSelf); got != first {
				t.Fatalf("client %v fate flipped across instances: %v then %v", client, first, got)
			}
		}
		if first {
			allowed++
		}
	}
	if allowed == 0 || allowed == 64 {
		t.Errorf("bogon gate allowed %d/64 clients; want a selective split", allowed)
	}
}

// TestAdversaryDrawsAreSeedKeyed: changing the seed moves both draw
// chains; keeping it fixes them.
func TestAdversaryDrawsAreSeedKeyed(t *testing.T) {
	a := &Adversary{Seed: 1}
	b := &Adversary{Seed: 1}
	c := &Adversary{Seed: 2}
	if a.forgeDraw(advTarget, "id.server", 7) != b.forgeDraw(advTarget, "id.server", 7) {
		t.Error("same seed, different forge draw")
	}
	if a.forgeDraw(advTarget, "id.server", 7) == c.forgeDraw(advTarget, "id.server", 7) {
		t.Error("different seed, same forge draw")
	}
	if a.flowDraw(advTagBogon, advSelf, advClient) != b.flowDraw(advTagBogon, advSelf, advClient) {
		t.Error("same seed, different flow draw")
	}
	if d := a.flowDraw(advTagBogon, advSelf, advClient); d < 0 || d >= 1 {
		t.Errorf("flow draw %v outside [0, 1)", d)
	}
}
