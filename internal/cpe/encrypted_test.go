package cpe

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// Encrypted-DNS policy tests: the CPE applying each EncryptedPolicy to
// LAN-originated DoT/DoH streams, exercised end-to-end from an attached
// host. No upstream is wired anywhere — the forwarder answers
// version.bind locally, which is all these paths need.

func versionBindWire(t *testing.T, id uint16) []byte {
	t.Helper()
	return dnswire.MustPack(dnswire.NewChaosTXTQuery(id, "version.bind"))
}

// TestEncryptedBlockDropsStreamsKeepsDo53: a blocking CPE times out
// encrypted streams from the LAN while the Do53 interception path keeps
// answering — the combination that forces opportunistic clients back
// into interceptable cleartext.
func TestEncryptedBlockDropsStreamsKeepsDo53(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	cfg.Intercept = InterceptSpec{AllV4: true}
	cfg.Encrypted = dnsserver.EncBlock
	d := Build(cfg)
	host := d.AttachHost("h", 0)

	_, err := host.Exchange(net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != netsim.ErrTimeout {
		t.Fatalf("DoT hello through blocking CPE = %v, want ErrTimeout", err)
	}
	resps, err := host.Exchange(net, ap("9.9.9.9:53"), versionBindWire(t, 1), netsim.ExchangeOptions{})
	if err != nil {
		t.Fatalf("Do53 through blocking CPE: %v", err)
	}
	if resps[0].Src != ap("9.9.9.9:53") {
		t.Errorf("Do53 response source = %s, want spoofed 9.9.9.9:53", resps[0].Src)
	}
}

// TestEncryptedTerminateServesSessionWithUntrustedCert: a terminating
// CPE DNATs the stream to its own endpoint, which completes the
// handshake behind a certificate no client trusts, answers in-session
// from the CPE's forwarder, and spoofs everything back from the address
// the client dialed.
func TestEncryptedTerminateServesSessionWithUntrustedCert(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	cfg.Intercept = InterceptSpec{AllV4: true}
	cfg.Encrypted = dnsserver.EncTerminate
	d := Build(cfg)
	host := d.AttachHost("h", 0)

	pkts, err := host.Exchange(net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("hello through terminating CPE: %v", err)
	}
	if pkts[0].Src != ap("9.9.9.9:853") {
		t.Errorf("helloAck source = %s, want spoofed 9.9.9.9:853", pkts[0].Src)
	}
	alpn, cert, ticket, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok || alpn != netsim.ALPNDoT {
		t.Fatalf("helloAck = (%d, ok=%v)", alpn, ok)
	}
	if cert.Trusted {
		t.Error("terminating CPE presented a trusted certificate")
	}
	if cert.Subject != cfg.WANAddr {
		t.Errorf("cert subject = %s, want the CPE's own %s", cert.Subject, cfg.WANAddr)
	}

	// The issued ticket verifies on the data path too: hello and data
	// are rewritten to the same delivery address, so the endpoint's
	// recomputation matches.
	framed, err := dnswire.AppendTCPFrame(nil, versionBindWire(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err = host.Exchange(net, ap("9.9.9.9:853"), netsim.PackStreamData(netsim.ALPNDoT, ticket, framed),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("data frame through terminating CPE: %v", err)
	}
	if pkts[0].Enc != netsim.ALPNDoT {
		t.Errorf("in-session response Enc = %d, want %d", pkts[0].Enc, netsim.ALPNDoT)
	}
	m, err := dnswire.Unpack(pkts[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if txt, ok := m.FirstTXT(); !ok || txt == "" {
		t.Error("terminated session did not answer version.bind with the CPE persona")
	}
}

// TestEncryptedTerminateV6: the v6 DNAT leg terminates v6-addressed
// streams the same way.
func TestEncryptedTerminateV6(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	cfg.LANAddr6 = addr("2601:db00:0:101::1")
	cfg.LANPrefix6 = pfx("2601:db00:0:101::/64")
	cfg.WANAddr6 = addr("2601:db00:0:101::")
	cfg.Encrypted = dnsserver.EncTerminate
	d := Build(cfg)
	host := d.AttachHost("h", 0)

	pkts, err := host.Exchange(net, ap("[2001:4860:4860::8888]:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("v6 hello through terminating CPE: %v", err)
	}
	if _, cert, _, ok := netsim.ParseStreamHelloAck(pkts[0].Payload); !ok || cert.Trusted {
		t.Errorf("v6 termination cert = (%+v, ok=%v), want an untrusted one", cert, ok)
	}
}

// TestEncryptedPassReachesUpstreamEndpoint: under the pass policy a
// stream crosses the CPE's NAT to a genuine upstream endpoint, whose
// trusted certificate comes back intact.
func TestEncryptedPassReachesUpstreamEndpoint(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	d := Build(cfg)
	host := d.AttachHost("h", 0)

	up := netsim.NewRouter("upstream", addr("9.9.9.9"))
	up.Bind(netsim.PortDoT, &dnsserver.StreamEndpoint{
		Cert:  netsim.StreamCert{Subject: addr("9.9.9.9"), Trusted: true},
		Inner: d.Forwarder,
	})
	up.AddRoute(netip.PrefixFrom(cfg.WANAddr, 32), d.Router)
	d.SetUplink(up)

	pkts, err := host.Exchange(net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("hello through passing CPE: %v", err)
	}
	_, cert, _, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok || !cert.Trusted || cert.Subject != addr("9.9.9.9") {
		t.Errorf("cert = (%+v, ok=%v), want the genuine trusted endpoint's", cert, ok)
	}
}

// TestEncryptedPassLeavesStreamsAlone: the default policy neither drops
// nor terminates — the stream leaves the LAN unanswered here (nothing
// upstream in this world), which a real client experiences as reaching
// the genuine resolver.
func TestEncryptedPassLeavesStreamsAlone(t *testing.T) {
	net := netsim.NewNetwork()
	cfg := baseConfig()
	cfg.Persona = dnsserver.PersonaDnsmasq
	cfg.Intercept = InterceptSpec{AllV4: true}
	d := Build(cfg)
	host := d.AttachHost("h", 0)

	// Do53 to the same address is intercepted...
	if _, err := host.Exchange(net, ap("9.9.9.9:53"), versionBindWire(t, 3), netsim.ExchangeOptions{}); err != nil {
		t.Fatalf("Do53: %v", err)
	}
	// ...but the stream passes the CPE untouched (and dies on the
	// unwired uplink, not on a CPE verdict).
	_, err := host.Exchange(net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != netsim.ErrTimeout {
		t.Fatalf("DoT hello under pass = %v, want ErrTimeout (nothing upstream)", err)
	}
}
