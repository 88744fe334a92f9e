package dnsserver

import (
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// EncryptedPolicy is what a CPE or middlebox does with encrypted DNS
// transports (DoT/DoH) crossing it — the three behaviors the XDRI
// study observed in residential routers.
type EncryptedPolicy int

// Policies.
const (
	// EncPass lets encrypted DNS through untouched. Adopting clients
	// escape the interceptor entirely.
	EncPass EncryptedPolicy = iota
	// EncBlock silently drops encrypted DNS, forcing opportunistic
	// clients to downgrade to Do53 (where the UDP interception rules
	// apply) and strict clients to fail outright.
	EncBlock
	// EncTerminate terminates the session at the interceptor, which
	// presents its own untrusted certificate and answers from its own
	// resolver — transparent interception carried over to DoT/DoH.
	EncTerminate
)

// String names the policy.
func (p EncryptedPolicy) String() string {
	switch p {
	case EncBlock:
		return "block"
	case EncTerminate:
		return "terminate"
	default:
		return "pass"
	}
}

// StreamEndpoint serves encrypted stream sessions (netsim stream frames
// on port 853/443) in front of a plain DNS service. It answers the
// handshake itself — presenting its certificate and issuing a stateless
// resumption ticket — and hands the DNS message inside each data frame
// to the Inner service, Enc-marked so the eventual response returns
// inside the session.
//
// The same type serves both sides of the study: a resolver operator
// binds one with a trusted self-subject certificate; a terminating
// interceptor binds one with an untrusted certificate in front of the
// resolver it would have answered Do53 queries from.
type StreamEndpoint struct {
	// Cert is the certificate presented in the handshake. An operator
	// endpoint sets Trusted; an interceptor's stays untrusted.
	Cert netsim.StreamCert
	// SelfSubject makes the presented certificate name the address the
	// session was addressed to (at delivery) instead of Cert.Subject —
	// how one endpoint bound across an operator's anycast addresses
	// presents the right name on each.
	SelfSubject bool
	// Inner answers the DNS queries carried inside sessions.
	Inner netsim.Service
	// Salt keys this endpoint's resumption tickets.
	Salt int64

	// inner is the unwrapped query Inner borrows. A packet on the stack
	// would move to the heap when passed through the Service interface;
	// deliveries never overlap, so one per endpoint serves them all.
	inner netsim.Packet
}

// ServeUDP implements netsim.Service for stream frames.
//
// The inner query keeps the delivery destination (addr:853/443) rather
// than being rewritten to port 53: ServiceCtx.Reply then builds the
// response with that same source, which is exactly what the reverse-
// DNAT table needs to spoof a terminated session's response back to the
// address the client dialed.
func (e *StreamEndpoint) ServeUDP(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	if alpn, ok := netsim.ParseStreamHello(pkt.Payload); ok {
		cert := e.Cert
		if e.SelfSubject {
			cert.Subject = pkt.Dst.Addr()
		}
		ticket := netsim.StreamTicket(pkt.Dst.Addr(), pkt.Src.Addr(), e.Salt)
		sc.Reply(pkt, netsim.PackStreamHelloAck(alpn, cert, ticket))
		return
	}
	if alpn, ticket, framed, ok := netsim.ParseStreamData(pkt.Payload); ok {
		if ticket != netsim.StreamTicket(pkt.Dst.Addr(), pkt.Src.Addr(), e.Salt) {
			sc.Reply(pkt, netsim.PackStreamAlert(netsim.StreamAlertBadTicket))
			return
		}
		body, _, err := dnswire.SplitTCPFrame(framed)
		if err != nil {
			sc.Reply(pkt, netsim.PackStreamAlert(netsim.StreamAlertProtocol))
			return
		}
		e.inner = *pkt
		e.inner.Payload = body
		e.inner.Enc = alpn
		e.Inner.ServeUDP(sc, &e.inner)
		return
	}
	sc.Reply(pkt, netsim.PackStreamAlert(netsim.StreamAlertProtocol))
}
