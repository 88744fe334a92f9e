package dnsserver

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// fwdWorld wires a forwarder in front of the dnsWorld resolver.
func fwdWorld(t *testing.T) (*dnsWorld, *Forwarder) {
	t.Helper()
	w := buildDNSWorld(t)
	fwdRtr := netsim.NewRouter("fwd", addr("172.20.0.1"))
	fwd := NewForwarder(PersonaDnsmasq, addr("172.20.0.1"), ap("10.53.0.53:53"))
	fwdRtr.Bind(53, fwd)
	fwdRtr.AddDefaultRoute(w.backbone)
	w.backbone.AddRoute(pfx("172.20.0.0/24"), fwdRtr)
	return w, fwd
}

// askFwd sends one query to the forwarder and counts network events.
func askFwd(t *testing.T, w *dnsWorld, name string, id uint16) (*dnswire.Message, int) {
	t.Helper()
	events := 0
	w.net.Tap(func(netsim.TraceEvent) { events++ })
	query := dnswire.NewQuery(id, dnswire.Name(name), dnswire.TypeA, dnswire.ClassINET)
	resps, err := w.client.Exchange(w.net, ap("172.20.0.1:53"), dnswire.MustPack(query), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatalf("ask %s: %v", name, err)
	}
	m, err := dnswire.Unpack(resps[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	return m, events
}

func TestForwarderCachesAnswers(t *testing.T) {
	w, _ := fwdWorld(t)
	m1, cold := askFwd(t, w, "www.example.com", 31)
	if len(m1.Answers) == 0 {
		t.Fatalf("no answer: %s", m1)
	}
	m2, warm := askFwd(t, w, "www.example.com", 32)
	if m2.Header.ID != 32 {
		t.Errorf("cached answer has id %d, want the new query's 32", m2.Header.ID)
	}
	if len(m2.Answers) != len(m1.Answers) {
		t.Errorf("cached answers differ: %d vs %d", len(m2.Answers), len(m1.Answers))
	}
	if warm >= cold/2 {
		t.Errorf("warm lookup used %d events vs cold %d — cache ineffective", warm, cold)
	}
}

func TestForwarderDoesNotCacheTTLZero(t *testing.T) {
	// whoami-style dynamic names carry TTL 0 and must be re-asked.
	w, _ := fwdWorld(t)
	_, cold := askFwd(t, w, "whoami.example.com", 33)
	_, second := askFwd(t, w, "whoami.example.com", 34)
	if second < cold/2 {
		t.Errorf("TTL-0 answer appears cached: %d vs %d events", second, cold)
	}
}

func TestForwarderNoCacheFlag(t *testing.T) {
	// With NoCache the warm lookup still crosses the network to the
	// upstream resolver (whose own cache is legitimate), so it costs
	// strictly more events than a forwarder-cache hit does.
	wc, _ := fwdWorld(t)
	askFwd(t, wc, "www.example.com", 35)
	_, cachedWarm := askFwd(t, wc, "www.example.com", 36)

	wn, fwd := fwdWorld(t)
	fwd.NoCache = true
	askFwd(t, wn, "www.example.com", 37)
	_, nocacheWarm := askFwd(t, wn, "www.example.com", 38)

	if nocacheWarm <= cachedWarm {
		t.Errorf("NoCache warm lookup used %d events, cached %d — flag ineffective", nocacheWarm, cachedWarm)
	}
}

// TestForwarderCacheKeepsNonASCIINamesApart: the cache folds ASCII case
// only (RFC 4343 §3). "\u212a.example.com" starts with KELVIN SIGN, which
// Unicode folds to "k"; were the cache keyed that way, the second query
// would be answered with the first name's cached wire, echoing the
// wrong question.
func TestForwarderCacheKeepsNonASCIINamesApart(t *testing.T) {
	w, _ := fwdWorld(t)
	w.authZone.AddAddr("k.example.com", 300, addr("192.0.2.81"))
	if m, _ := askFwd(t, w, "K.example.com", 41); len(m.Answers) != 1 {
		t.Fatalf("k.example.com: %s", m)
	}
	if m, _ := askFwd(t, w, "k.EXAMPLE.com", 42); len(m.Answers) != 1 || m.Question().Name != "K.example.com" {
		t.Fatalf("ASCII case variant missed the cache entry: %s", m)
	}
	kelvin := "\u212a.example.com"
	m, _ := askFwd(t, w, kelvin, 43)
	if m.Question().Name != dnswire.Name(kelvin) {
		t.Errorf("answer echoes question %q, want %q", m.Question().Name, kelvin)
	}
	if m.Header.RCode != dnswire.RCodeNameError || len(m.Answers) != 0 {
		t.Errorf("%q answered from k.example.com: %s", kelvin, m)
	}
}

// TestForwarderMetricsRecording: the registered counters record through
// the nil-safe helpers, and a nil registry disables the set entirely.
func TestForwarderMetricsRecording(t *testing.T) {
	if NewForwarderMetrics(nil) != nil {
		t.Error("nil registry should yield nil metrics")
	}
	var disabled *ForwarderMetrics
	disabled.query() // must not panic

	fm := NewForwarderMetrics(metrics.New())
	fm.query()
	fm.query()
	fm.chaosLocal()
	fm.cacheHit()
	fm.cacheMiss()
	fm.forwarded()
	for name, got := range map[string]int64{
		"queries":      fm.Queries.Value(),
		"chaos_local":  fm.ChaosLocal.Value(),
		"cache_hits":   fm.CacheHits.Value(),
		"cache_misses": fm.CacheMisses.Value(),
		"forwarded":    fm.Forwarded.Value(),
	} {
		want := int64(1)
		if name == "queries" {
			want = 2
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
