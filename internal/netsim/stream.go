package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/netip"
)

// Encrypted stream sessions (DoT/DoH) are modeled as framed datagrams
// over Proto TCP rather than a byte-stream abstraction: the simulator's
// unit of delivery is the packet, and what the study needs from an
// encrypted transport is its *observable* behaviour — which middleboxes
// can see it (none: the UDP-gated DNAT rules pass TCP flows through),
// what a terminating interceptor must present (a certificate), and what
// a session costs (one extra round trip to establish, zero when
// resumed). No real cryptography is involved: what matters for the
// technique is the authentication decision (StreamCert.AuthenticatesStrict),
// not the cipher suite.
//
// A session is two frame exchanges:
//
//	client                          server (port 853/443)
//	  | -- hello(alpn) ------------> |      full handshake,
//	  | <- helloAck(cert, ticket) -- |      one simulated RTT
//	  | -- data(ticket, dns) ------> |
//	  | <- dns response (Enc-marked) |      one simulated RTT
//
// A client holding a ticket skips straight to the data frame — RFC 8446
// session resumption collapsed to its accounting essence. Tickets are
// stateless (recomputed from flow identity, below) so no server-side
// session table exists whose contents could depend on which probes
// share a world — the property that keeps sharded runs byte-identical.

// ALPN codes carried in stream frames.
const (
	// ALPNDoT is DNS over TLS (RFC 7858), port 853.
	ALPNDoT uint8 = 1
	// ALPNDoH is DNS over HTTPS (RFC 8484), port 443. In this model it
	// differs from DoT only in port and ALPN: both are TLS sessions
	// carrying framed DNS messages.
	ALPNDoH uint8 = 2
)

// Well-known encrypted-transport ports.
const (
	PortDoT uint16 = 853
	PortDoH uint16 = 443
)

// streamMagic is the first octet of every stream frame. A DNS message's
// first octet is its ID high byte and can collide with it, which is why
// frames are only ever parsed by context: packets arriving on a stream
// port are frames, and a client parses responses inside an established
// session as DNS unless they are exactly alert-sized (3 octets — no
// valid DNS message is shorter than a 12-octet header).
const streamMagic = 0xD7

// Stream frame kinds.
const (
	frameHello    = 1
	frameHelloAck = 2
	frameData     = 3
	frameAlert    = 4
)

// Stream alert codes.
const (
	// StreamAlertBadTicket rejects a data frame whose resumption ticket
	// does not verify; the client must redo the full handshake.
	StreamAlertBadTicket uint8 = 1
	// StreamAlertProtocol rejects an unparseable frame.
	StreamAlertProtocol uint8 = 2
)

// StreamCert is the model's stand-in for an X.509 server certificate,
// and the blob a helloAck carries. Subject is the address the
// certificate authenticates; Trusted is whether the chain verifies
// against the client's roots (a terminating interceptor's self-signed
// certificate does not).
type StreamCert struct {
	Subject netip.Addr
	Trusted bool
}

// AuthenticatesStrict reports whether a strict-profile client dialing
// target accepts this certificate: the chain must verify and the
// subject must name the dialed resolver (RFC 7858 §4.2). An
// opportunistic client accepts any certificate.
func (c StreamCert) AuthenticatesStrict(target netip.Addr) bool {
	return c.Trusted && c.Subject == target
}

// StreamTicket derives the stateless resumption ticket for a client at
// one endpoint. It is a pure function of flow identity and the
// endpoint's salt, so the server validates tickets by recomputation —
// no mutable session table, no cross-probe ordering effects.
func StreamTicket(endpoint, client netip.Addr, salt int64) uint64 {
	h := fnv.New64a()
	e, c := endpoint.As16(), client.As16()
	h.Write(e[:])
	h.Write(c[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(salt))
	h.Write(b[:])
	return h.Sum64()
}

// PackStreamHello encodes a session-establishment request.
func PackStreamHello(alpn uint8) []byte {
	return []byte{streamMagic, frameHello, alpn}
}

// ParseStreamHello decodes a hello frame.
func ParseStreamHello(b []byte) (alpn uint8, ok bool) {
	if len(b) != 3 || b[0] != streamMagic || b[1] != frameHello {
		return 0, false
	}
	return b[2], true
}

// PackStreamHelloAck encodes the server's handshake completion: the
// certificate it presents and the session ticket it issues.
func PackStreamHelloAck(alpn uint8, cert StreamCert, ticket uint64) []byte {
	subj := cert.Subject.As16()
	out := make([]byte, 0, 3+1+16+8)
	out = append(out, streamMagic, frameHelloAck, alpn)
	trusted := byte(0)
	if cert.Trusted {
		trusted = 1
	}
	out = append(out, trusted)
	out = append(out, subj[:]...)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], ticket)
	return append(out, t[:]...)
}

// ParseStreamHelloAck decodes a helloAck frame. The trust octet is 0
// or 1; any other value is rejected, so every accepted frame re-packs
// to its own bytes.
func ParseStreamHelloAck(b []byte) (alpn uint8, cert StreamCert, ticket uint64, ok bool) {
	if len(b) != 3+1+16+8 || b[0] != streamMagic || b[1] != frameHelloAck || b[3] > 1 {
		return 0, StreamCert{}, 0, false
	}
	alpn = b[2]
	cert.Trusted = b[3] == 1
	var subj [16]byte
	copy(subj[:], b[4:20])
	cert.Subject = netip.AddrFrom16(subj).Unmap()
	return alpn, cert, binary.BigEndian.Uint64(b[20:28]), true
}

// streamDataHeaderLen is the data frame's overhead before the framed
// DNS message: magic, kind, alpn, and the 8-octet ticket.
const streamDataHeaderLen = 3 + 8

// PackStreamData encodes one in-session query. The DNS message is
// carried with dnswire's RFC 1035 TCP length prefix (the caller frames
// it via dnswire.AppendTCPFrame), exactly as a real DoT session carries
// TCP-framed messages inside TLS records.
func PackStreamData(alpn uint8, ticket uint64, framedDNS []byte) []byte {
	out := make([]byte, 0, streamDataHeaderLen+len(framedDNS))
	out = append(out, streamMagic, frameData, alpn)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], ticket)
	out = append(out, t[:]...)
	return append(out, framedDNS...)
}

// ParseStreamData decodes a data frame, returning the framed DNS bytes.
func ParseStreamData(b []byte) (alpn uint8, ticket uint64, framedDNS []byte, ok bool) {
	if len(b) < streamDataHeaderLen || b[0] != streamMagic || b[1] != frameData {
		return 0, 0, nil, false
	}
	return b[2], binary.BigEndian.Uint64(b[3:11]), b[streamDataHeaderLen:], true
}

// PackStreamAlert encodes a session rejection. Alerts are exactly three
// octets so a client can tell them from DNS responses by length alone.
func PackStreamAlert(code uint8) []byte {
	return []byte{streamMagic, frameAlert, code}
}

// ParseStreamAlert decodes an alert frame.
func ParseStreamAlert(b []byte) (code uint8, ok bool) {
	if len(b) != 3 || b[0] != streamMagic || b[1] != frameAlert {
		return 0, false
	}
	return b[2], true
}

// StreamPortFor maps an ALPN code to its well-known port.
func StreamPortFor(alpn uint8) (uint16, error) {
	switch alpn {
	case ALPNDoT:
		return PortDoT, nil
	case ALPNDoH:
		return PortDoH, nil
	default:
		return 0, fmt.Errorf("netsim: unknown stream ALPN %d", alpn)
	}
}
