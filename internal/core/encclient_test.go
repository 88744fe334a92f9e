package core_test

import (
	"errors"
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// encWorld is the smallest world an encrypted exchange needs: one
// resolver router serving Do53 on 53 and stream sessions on 853/443,
// and a client host behind it.
type encWorld struct {
	net      *netsim.Network
	host     *netsim.Host
	rtr      *netsim.Router
	endpoint *dnsserver.StreamEndpoint
	resolver netip.AddrPort
}

// txtService answers any DNS query with a TXT response carrying tag,
// marking whether the query arrived inside an encrypted session.
func txtService(tag string) netsim.Service {
	return netsim.ServiceFunc(func(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
		query, err := dnswire.Unpack(pkt.Payload)
		if err != nil {
			return
		}
		answer := tag
		if pkt.Enc != 0 {
			answer = tag + "-encrypted"
		}
		resp := dnswire.NewTXTResponse(query, answer)
		wire, err := resp.Pack()
		if err != nil {
			return
		}
		sc.Reply(pkt, wire)
	})
}

func buildEncWorld(t *testing.T, trusted bool) *encWorld {
	t.Helper()
	w := &encWorld{net: netsim.NewNetwork()}
	addr := netip.MustParseAddr("9.9.9.9")
	w.resolver = netip.AddrPortFrom(addr, 53)
	w.rtr = netsim.NewRouter("resolver", addr)
	w.rtr.Bind(53, txtService("plain"))
	w.endpoint = &dnsserver.StreamEndpoint{
		Cert:  netsim.StreamCert{Subject: addr, Trusted: trusted},
		Inner: txtService("session"),
		Salt:  7,
	}
	w.rtr.Bind(netsim.PortDoT, w.endpoint)
	w.rtr.Bind(netsim.PortDoH, w.endpoint)
	w.host = netsim.NewHost("stub", netip.MustParseAddr("10.0.0.2"), netip.Addr{}, w.rtr)
	w.rtr.AddRoute(netip.MustParsePrefix("10.0.0.0/24"), w.host)
	return w
}

func (w *encWorld) client(mode core.TransportMode) *core.EncryptedClient {
	return &core.EncryptedClient{
		Sim:  &core.SimClient{Net: w.net, Host: w.host},
		Mode: mode,
	}
}

func chaosQuery(id uint16) *dnswire.Message {
	return dnswire.NewChaosTXTQuery(id, "version.bind")
}

func firstTXT(t *testing.T, resps []*dnswire.Message) string {
	t.Helper()
	if len(resps) == 0 {
		t.Fatal("no responses")
	}
	txt, ok := resps[0].FirstTXT()
	if !ok {
		t.Fatal("response carries no TXT answer")
	}
	return txt
}

// TestEncryptedClientHandshakeAndResumption: the first query pays a
// handshake round trip, the second resumes on the stateless ticket and
// comes back cheaper; both are answered inside the session.
func TestEncryptedClientHandshakeAndResumption(t *testing.T) {
	for _, mode := range []core.TransportMode{
		core.TransportDoTOpportunistic, core.TransportDoTStrict, core.TransportDoH,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			w := buildEncWorld(t, true)
			c := w.client(mode)

			resps, rtt1, err := c.ExchangeRTT(w.resolver, chaosQuery(1))
			if err != nil {
				t.Fatal(err)
			}
			if got := firstTXT(t, resps); got != "session-encrypted" {
				t.Errorf("first answer = %q, want the in-session service's", got)
			}
			resps, rtt2, err := c.ExchangeRTT(w.resolver, chaosQuery(2))
			if err != nil {
				t.Fatal(err)
			}
			if got := firstTXT(t, resps); got != "session-encrypted" {
				t.Errorf("resumed answer = %q, want the in-session service's", got)
			}
			if c.Handshakes != 1 || c.Resumed != 1 || c.Downgrades != 0 || c.AuthFails != 0 {
				t.Errorf("counters = %d handshakes, %d resumed, %d downgrades, %d authfails; want 1/1/0/0",
					c.Handshakes, c.Resumed, c.Downgrades, c.AuthFails)
			}
			if rtt2 >= rtt1 {
				t.Errorf("resumed RTT %v not below handshake RTT %v", rtt2, rtt1)
			}
			if rtt2 == 0 || rtt1 == 0 {
				t.Error("virtual-clock RTTs should be non-zero")
			}
		})
	}
}

// TestEncryptedClientStrictRejectsUntrustedCert: a strict profile
// refuses an endpoint whose certificate does not authenticate — the
// terminate-and-intercept scenario — while the opportunistic profile
// accepts it and keeps resolving through the session.
func TestEncryptedClientStrictRejectsUntrustedCert(t *testing.T) {
	w := buildEncWorld(t, false)

	strict := w.client(core.TransportDoTStrict)
	_, _, err := strict.ExchangeRTT(w.resolver, chaosQuery(3))
	if !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("strict vs untrusted cert = %v, want core.ErrAuthFailed", err)
	}
	if strict.AuthFails != 1 || strict.Handshakes != 0 || strict.Downgrades != 0 {
		t.Errorf("strict counters = %d authfails, %d handshakes, %d downgrades; want 1/0/0",
			strict.AuthFails, strict.Handshakes, strict.Downgrades)
	}

	opp := w.client(core.TransportDoTOpportunistic)
	resps, _, err := opp.ExchangeRTT(w.resolver, chaosQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := firstTXT(t, resps); got != "session-encrypted" {
		t.Errorf("opportunistic answer = %q, want the in-session service's", got)
	}
	if opp.AuthFails != 0 || opp.Handshakes != 1 {
		t.Errorf("opportunistic counters = %d authfails, %d handshakes; want 0/1", opp.AuthFails, opp.Handshakes)
	}
}

// TestEncryptedClientDowngradeIsSticky: when the encrypted channel is
// blocked, the opportunistic profile falls back to Do53 and stays
// there — later queries to the same target never retry the handshake —
// while the strict profile surfaces the timeout.
func TestEncryptedClientDowngradeIsSticky(t *testing.T) {
	w := buildEncWorld(t, true)
	w.rtr.AddInputFilter(func(pkt *netsim.Packet) (bool, string) {
		if pkt.Proto == netsim.TCP && pkt.Dst.Port() == netsim.PortDoT {
			return true, "middlebox blocks DoT"
		}
		return false, ""
	})

	opp := w.client(core.TransportDoTOpportunistic)
	for i, want := range []int{1, 0} { // downgrade on the first query only
		before := opp.Downgrades
		resps, err := opp.Exchange(w.resolver, chaosQuery(uint16(10+i)))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := firstTXT(t, resps); got != "plain" {
			t.Errorf("query %d answer = %q, want the Do53 service's", i, got)
		}
		if opp.Downgrades-before != want {
			t.Errorf("query %d recorded %d downgrades, want %d", i, opp.Downgrades-before, want)
		}
	}
	if opp.Handshakes != 0 {
		t.Errorf("blocked channel completed %d handshakes, want 0", opp.Handshakes)
	}

	strict := w.client(core.TransportDoTStrict)
	if _, _, err := strict.ExchangeRTT(w.resolver, chaosQuery(12)); !errors.Is(err, core.ErrTimeout) {
		t.Errorf("strict vs blocked channel = %v, want core.ErrTimeout", err)
	}
}

// TestEncryptedClientBadTicketRedoesHandshake: when the endpoint stops
// honoring an issued ticket (its salt changed — e.g. the path now
// terminates somewhere new), the client redoes the handshake once and
// the query still succeeds.
func TestEncryptedClientBadTicketRedoesHandshake(t *testing.T) {
	w := buildEncWorld(t, true)
	c := w.client(core.TransportDoH)

	if _, _, err := c.ExchangeRTT(w.resolver, chaosQuery(20)); err != nil {
		t.Fatal(err)
	}
	w.endpoint.Salt = 8 // invalidate every outstanding ticket

	resps, _, err := c.ExchangeRTT(w.resolver, chaosQuery(21))
	if err != nil {
		t.Fatal(err)
	}
	if got := firstTXT(t, resps); got != "session-encrypted" {
		t.Errorf("post-rekey answer = %q, want the in-session service's", got)
	}
	if c.Handshakes != 2 || c.Resumed != 0 {
		t.Errorf("counters = %d handshakes, %d resumed; want 2 handshakes and the failed resumption rolled back",
			c.Handshakes, c.Resumed)
	}
}

// TestEncryptedClientUpgradePredicate: targets outside the Upgrade set
// stay Do53 even on an encrypted-mode client — the CHAOS probe of a
// CPE's own forwarder must not grow a TLS session.
func TestEncryptedClientUpgradePredicate(t *testing.T) {
	w := buildEncWorld(t, true)
	c := w.client(core.TransportDoTStrict)
	c.Upgrade = func(a netip.Addr) bool { return false }

	resps, rtt, err := c.ExchangeRTT(w.resolver, chaosQuery(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := firstTXT(t, resps); got != "plain" {
		t.Errorf("non-upgraded answer = %q, want the Do53 service's", got)
	}
	if c.Handshakes != 0 {
		t.Errorf("non-upgraded target completed %d handshakes, want 0", c.Handshakes)
	}
	if rtt == 0 {
		t.Error("Do53 path lost its RTT")
	}
}
