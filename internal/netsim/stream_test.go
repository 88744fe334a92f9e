package netsim

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"github.com/dnswatch/dnsloc/internal/faultfs"
)

// TestStreamFrameRoundTrips pins the wire format of every stream frame
// kind: pack then parse is the identity, and each parser rejects the
// other kinds' frames.
func TestStreamFrameRoundTrips(t *testing.T) {
	subject := netip.MustParseAddr("9.9.9.9")
	cert := StreamCert{Subject: subject, Trusted: true}

	hello := PackStreamHello(ALPNDoT)
	if alpn, ok := ParseStreamHello(hello); !ok || alpn != ALPNDoT {
		t.Errorf("ParseStreamHello(PackStreamHello) = (%d, %v), want (%d, true)", alpn, ok, ALPNDoT)
	}

	ack := PackStreamHelloAck(ALPNDoH, cert, 0xdeadbeefcafe)
	alpn, gotCert, ticket, ok := ParseStreamHelloAck(ack)
	if !ok || alpn != ALPNDoH || gotCert != cert || ticket != 0xdeadbeefcafe {
		t.Errorf("helloAck round trip = (%d, %+v, %#x, %v)", alpn, gotCert, ticket, ok)
	}

	framed := []byte{0x00, 0x02, 0xab, 0xcd}
	data := PackStreamData(ALPNDoT, 42, framed)
	dALPN, dTicket, body, ok := ParseStreamData(data)
	if !ok || dALPN != ALPNDoT || dTicket != 42 || string(body) != string(framed) {
		t.Errorf("data round trip = (%d, %d, %x, %v)", dALPN, dTicket, body, ok)
	}

	alert := PackStreamAlert(StreamAlertBadTicket)
	if code, ok := ParseStreamAlert(alert); !ok || code != StreamAlertBadTicket {
		t.Errorf("alert round trip = (%d, %v)", code, ok)
	}

	// Cross-parsing must fail: a hello is not an ack, an alert is not
	// data, and a plain DNS payload (no magic) is none of them.
	if _, _, _, ok := ParseStreamHelloAck(hello); ok {
		t.Error("ParseStreamHelloAck accepted a hello frame")
	}
	if _, _, _, ok := ParseStreamData(alert); ok {
		t.Error("ParseStreamData accepted an alert frame")
	}
	dns := []byte{0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}
	if _, ok := ParseStreamHello(dns); ok {
		t.Error("ParseStreamHello accepted a DNS header")
	}
	if _, ok := ParseStreamAlert(dns); ok {
		t.Error("ParseStreamAlert accepted a DNS header")
	}
}

// TestStreamTicketDeterminism: tickets are pure functions of (endpoint,
// client, salt) — the stateless-resumption property the terminate
// policy's DNAT consistency depends on — and vary with every input.
func TestStreamTicketDeterminism(t *testing.T) {
	ep := netip.MustParseAddr("1.1.1.1")
	cl := netip.MustParseAddr("33.0.4.7")
	a := StreamTicket(ep, cl, 7)
	if b := StreamTicket(ep, cl, 7); a != b {
		t.Errorf("ticket not deterministic: %#x vs %#x", a, b)
	}
	if StreamTicket(ep, cl, 8) == a {
		t.Error("salt change did not change the ticket")
	}
	if StreamTicket(cl, ep, 7) == a {
		t.Error("swapping endpoint and client did not change the ticket")
	}
}

// TestStreamPortFor maps each ALPN to its well-known port and rejects
// unknown codes.
func TestStreamPortFor(t *testing.T) {
	if p, err := StreamPortFor(ALPNDoT); err != nil || p != PortDoT {
		t.Errorf("StreamPortFor(DoT) = (%d, %v), want (%d, nil)", p, err, PortDoT)
	}
	if p, err := StreamPortFor(ALPNDoH); err != nil || p != PortDoH {
		t.Errorf("StreamPortFor(DoH) = (%d, %v), want (%d, nil)", p, err, PortDoH)
	}
	if _, err := StreamPortFor(99); err == nil {
		t.Error("StreamPortFor(99) succeeded, want error")
	}
}

// TestRouterInputFilterBlocksStreamPort: an input filter sees packets
// before DNAT and local delivery, and a drop verdict stops processing —
// the primitive the encrypted-DNS block policy builds on. Do53 over UDP
// must keep flowing through the same router.
func TestRouterInputFilterBlocksStreamPort(t *testing.T) {
	n := NewNetwork()
	resolver := addr("10.0.0.53")
	rtr := NewRouter("filter-test", resolver)
	rtr.Bind(53, echoService("plain"))
	rtr.Bind(PortDoT, echoService("dot"))

	var dropped int
	rtr.AddInputFilter(func(pkt Packet) (bool, string) {
		if pkt.Proto == TCP && pkt.Dst.Port() == PortDoT {
			dropped++
			return true, "test blocks DoT"
		}
		return false, ""
	})

	host := NewHost("h", addr("10.0.0.2"), netip.Addr{}, rtr)
	rtr.AddRoute(pfx("10.0.0.0/24"), host)

	// A UDP query passes the filter and is answered.
	if _, err := host.Exchange(n, netip.AddrPortFrom(resolver, 53), []byte("ping"), ExchangeOptions{}); err != nil {
		t.Fatalf("UDP exchange through filter failed: %v", err)
	}
	// A DoT-port TCP packet is dropped: the exchange times out.
	if _, err := host.Exchange(n, netip.AddrPortFrom(resolver, PortDoT), []byte("hello"), ExchangeOptions{Proto: TCP}); err != ErrTimeout {
		t.Fatalf("blocked TCP exchange = %v, want ErrTimeout", err)
	}
	if dropped == 0 {
		t.Error("input filter never saw the TCP packet")
	}
}

// TestStreamCertAuthenticatesStrict is the strict profile's whole
// decision: a certificate authenticates a dialed resolver only if its
// chain verifies and its subject names that resolver. An opportunistic
// client skips the check, which is what lets a terminator in.
func TestStreamCertAuthenticatesStrict(t *testing.T) {
	target := netip.MustParseAddr("1.1.1.1")
	cases := []struct {
		name string
		cert StreamCert
		want bool
	}{
		{"trusted cert for the target", StreamCert{Subject: target, Trusted: true}, true},
		{"untrusted cert copying the target subject", StreamCert{Subject: target}, false},
		{"trusted cert for another resolver", StreamCert{Subject: netip.MustParseAddr("96.120.0.53"), Trusted: true}, false},
		{"self-signed cert naming the terminator", StreamCert{Subject: netip.MustParseAddr("96.120.1.17")}, false},
		{"trusted cert naming no one", StreamCert{Trusted: true}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.cert.AuthenticatesStrict(target); got != c.want {
				t.Errorf("AuthenticatesStrict(%s) = %t, want %t", target, got, c.want)
			}
		})
	}
}

// FuzzStreamFrames drives the four stream-frame readers with arbitrary
// bytes. None may panic, and every frame a reader accepts must re-pack
// to exactly the bytes it was parsed from: a reader that accepts a
// non-canonical encoding would let two byte strings mean one frame.
// The seeds are one frame of each kind plus the corruptions faultfs
// applies to files: a flipped bit, a torn tail, appended garbage.
func FuzzStreamFrames(f *testing.F) {
	cert := StreamCert{Subject: netip.MustParseAddr("2001:db8::53"), Trusted: true}
	frames := [][]byte{
		PackStreamHello(ALPNDoT),
		PackStreamHelloAck(ALPNDoH, cert, 0xdeadbeefcafe),
		PackStreamHelloAck(ALPNDoT, StreamCert{Subject: netip.MustParseAddr("9.9.9.9")}, 1),
		PackStreamData(ALPNDoT, 42, []byte{0x00, 0x02, 0xab, 0xcd}),
		PackStreamAlert(StreamAlertBadTicket),
	}
	dir := f.TempDir()
	for i, frame := range frames {
		f.Add(frame)
		n := len(frame)
		for j, corrupt := range []func(path string) error{
			func(p string) error { return faultfs.FlipBit(p, 3) },
			func(p string) error { return faultfs.FlipBit(p, 25) }, // a helloAck's trust octet
			func(p string) error { return faultfs.FlipBit(p, uint64(n)*4+1) },
			func(p string) error { return faultfs.FlipBit(p, uint64(n-1)*8) },
			func(p string) error { return faultfs.TruncateTail(p, 1) },
			func(p string) error { return faultfs.TruncateTail(p, n/2) },
			func(p string) error { return faultfs.AppendGarbage(p, []byte{streamMagic, frameAlert}) },
		} {
			p := filepath.Join(dir, "frame")
			if err := os.WriteFile(p, frame, 0o644); err != nil {
				f.Fatal(err)
			}
			if err := corrupt(p); err != nil {
				f.Fatalf("frame %d corruption %d: %v", i, j, err)
			}
			blob, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if alpn, ok := ParseStreamHello(b); ok {
			if got := PackStreamHello(alpn); !bytes.Equal(got, b) {
				t.Errorf("hello %x re-packs as %x", b, got)
			}
		}
		if alpn, cert, ticket, ok := ParseStreamHelloAck(b); ok {
			if got := PackStreamHelloAck(alpn, cert, ticket); !bytes.Equal(got, b) {
				t.Errorf("helloAck %x re-packs as %x", b, got)
			}
		}
		if alpn, ticket, framed, ok := ParseStreamData(b); ok {
			if got := PackStreamData(alpn, ticket, framed); !bytes.Equal(got, b) {
				t.Errorf("data %x re-packs as %x", b, got)
			}
		}
		if code, ok := ParseStreamAlert(b); ok {
			if got := PackStreamAlert(code); !bytes.Equal(got, b) {
				t.Errorf("alert %x re-packs as %x", b, got)
			}
		}
	})
}
