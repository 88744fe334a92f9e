package dnsserver

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// streamWorld extends the DNS world with a stream endpoint on the
// resolver's DoT port, fronting the same recursive resolver.
func buildStreamWorld(t *testing.T) (*dnsWorld, *StreamEndpoint) {
	t.Helper()
	w := buildDNSWorld(t)
	ep := &StreamEndpoint{
		Cert:  netsim.StreamCert{Subject: addr("10.53.0.53"), Trusted: true},
		Inner: w.resolver,
		Salt:  3,
	}
	w.resRtr.Bind(netsim.PortDoT, ep)
	return w, ep
}

// streamExchange sends one TCP-framed stream payload from the client.
func streamExchange(t *testing.T, w *dnsWorld, payload []byte) []netsim.Packet {
	t.Helper()
	pkts, err := w.client.Exchange(w.net, ap("10.53.0.53:853"), payload,
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("stream exchange: %v", err)
	}
	return pkts
}

// TestStreamEndpointHandshakeIssuesTicket: a hello draws a helloAck
// carrying the endpoint's certificate and a ticket that verifies
// against the flow identity.
func TestStreamEndpointHandshakeIssuesTicket(t *testing.T) {
	w, _ := buildStreamWorld(t)
	pkts := streamExchange(t, w, netsim.PackStreamHello(netsim.ALPNDoT))
	alpn, cert, ticket, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok || alpn != netsim.ALPNDoT {
		t.Fatalf("helloAck = (%d, ok=%v)", alpn, ok)
	}
	if !cert.Trusted || cert.Subject != addr("10.53.0.53") {
		t.Errorf("cert = %+v, want trusted 10.53.0.53", cert)
	}
	if want := netsim.StreamTicket(addr("10.53.0.53"), addr("203.0.113.2"), 3); ticket != want {
		t.Errorf("ticket = %#x, want flow-derived %#x", ticket, want)
	}
}

// TestStreamEndpointSelfSubjectNamesDeliveryAddress: with SelfSubject,
// the certificate names the address the session was addressed to —
// what one endpoint bound across anycast addresses presents.
func TestStreamEndpointSelfSubjectNamesDeliveryAddress(t *testing.T) {
	w, ep := buildStreamWorld(t)
	ep.SelfSubject = true
	ep.Cert = netsim.StreamCert{Trusted: true} // no subject of its own
	pkts := streamExchange(t, w, netsim.PackStreamHello(netsim.ALPNDoT))
	_, cert, _, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok || cert.Subject != addr("10.53.0.53") {
		t.Errorf("cert subject = %v, want the delivery address", cert.Subject)
	}
}

// TestStreamEndpointAnswersInSession: a data frame with a valid ticket
// reaches the inner resolver and the DNS answer returns Enc-marked.
func TestStreamEndpointAnswersInSession(t *testing.T) {
	w, _ := buildStreamWorld(t)
	ticket := netsim.StreamTicket(addr("10.53.0.53"), addr("203.0.113.2"), 3)
	query := dnswire.NewQuery(7, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	framed, err := dnswire.AppendTCPFrame(nil, dnswire.MustPack(query))
	if err != nil {
		t.Fatal(err)
	}
	pkts := streamExchange(t, w, netsim.PackStreamData(netsim.ALPNDoT, ticket, framed))
	if pkts[0].Enc != netsim.ALPNDoT {
		t.Errorf("response Enc = %d, want %d — in-session answers stay inside the session", pkts[0].Enc, netsim.ALPNDoT)
	}
	m, err := dnswire.Unpack(pkts[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) == 0 {
		t.Fatal("in-session query got no answers")
	}
}

// TestStreamEndpointRejectsBadTicket: a stale ticket draws the
// bad-ticket alert, never an answer — the signal that makes the client
// redo its handshake when the path changed underneath it.
func TestStreamEndpointRejectsBadTicket(t *testing.T) {
	w, _ := buildStreamWorld(t)
	query := dnswire.NewQuery(8, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	framed, err := dnswire.AppendTCPFrame(nil, dnswire.MustPack(query))
	if err != nil {
		t.Fatal(err)
	}
	pkts := streamExchange(t, w, netsim.PackStreamData(netsim.ALPNDoT, 0xbad, framed))
	if code, ok := netsim.ParseStreamAlert(pkts[0].Payload); !ok || code != netsim.StreamAlertBadTicket {
		t.Errorf("stale ticket drew (%d, ok=%v), want the bad-ticket alert", code, ok)
	}
}

// TestStreamEndpointRejectsMalformedFrames: both a non-frame payload
// and a data frame whose inner TCP framing is broken draw the protocol
// alert.
func TestStreamEndpointRejectsMalformedFrames(t *testing.T) {
	w, _ := buildStreamWorld(t)
	pkts := streamExchange(t, w, []byte{0x12, 0x34, 0x00})
	if code, ok := netsim.ParseStreamAlert(pkts[0].Payload); !ok || code != netsim.StreamAlertProtocol {
		t.Errorf("garbage payload drew (%d, ok=%v), want the protocol alert", code, ok)
	}
	ticket := netsim.StreamTicket(addr("10.53.0.53"), addr("203.0.113.2"), 3)
	pkts = streamExchange(t, w, netsim.PackStreamData(netsim.ALPNDoT, ticket, []byte{0x00, 0x10, 0x01}))
	if code, ok := netsim.ParseStreamAlert(pkts[0].Payload); !ok || code != netsim.StreamAlertProtocol {
		t.Errorf("broken inner framing drew (%d, ok=%v), want the protocol alert", code, ok)
	}
}

// TestEncryptedPolicyString pins the policy names the sweep tables use.
func TestEncryptedPolicyString(t *testing.T) {
	cases := map[EncryptedPolicy]string{
		EncPass: "pass", EncBlock: "block", EncTerminate: "terminate",
	}
	for pol, want := range cases {
		if got := pol.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", pol, got, want)
		}
	}
}
