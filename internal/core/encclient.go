package core

import (
	"errors"
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// TransportMode is a stub resolver's encrypted-DNS configuration: which
// transport it tries first and how hard it authenticates — the ladder
// the paper's §6 countermeasure discussion sketches.
type TransportMode int

// Transport modes, in escalation order.
const (
	// TransportDo53 is classic cleartext UDP port 53.
	TransportDo53 TransportMode = iota
	// TransportDoTOpportunistic tries DoT but accepts any certificate
	// (RFC 7858's opportunistic privacy profile) and silently falls back
	// to Do53 when the encrypted channel fails.
	TransportDoTOpportunistic
	// TransportDoTStrict requires the certificate to authenticate the
	// resolver and never downgrades: a blocked or terminated channel
	// means no resolution.
	TransportDoTStrict
	// TransportDoH is DoH on port 443; like every real DoH client it
	// authenticates strictly and never downgrades.
	TransportDoH
)

// String names the mode as the sweep tables render it.
func (m TransportMode) String() string {
	switch m {
	case TransportDoTOpportunistic:
		return "dot-opportunistic"
	case TransportDoTStrict:
		return "dot-strict"
	case TransportDoH:
		return "doh"
	default:
		return "do53"
	}
}

// Encrypted reports whether the mode uses an encrypted transport at all.
func (m TransportMode) Encrypted() bool { return m != TransportDo53 }

// Strict reports whether the mode authenticates the server certificate.
func (m TransportMode) Strict() bool {
	return m == TransportDoTStrict || m == TransportDoH
}

// alpn returns the mode's netsim ALPN code (zero for Do53).
func (m TransportMode) alpn() uint8 {
	switch m {
	case TransportDoTOpportunistic, TransportDoTStrict:
		return netsim.ALPNDoT
	case TransportDoH:
		return netsim.ALPNDoH
	default:
		return 0
	}
}

// encSession is the per-target state of an encrypted transport: a
// resumption ticket once a handshake succeeded, or a sticky downgrade
// marker once the opportunistic profile fell back to Do53.
type encSession struct {
	ticket     uint64
	haveTicket bool
	downgraded bool
}

// EncryptedClient layers DoT/DoH transport selection over a SimClient.
// Targets matched by Upgrade are queried through an encrypted stream
// session (netsim stream frames over simulated TCP); everything else —
// the CPE version.bind step, bogon queries — stays Do53, exactly as a
// real stub with a DoT-configured upstream still speaks cleartext to
// ad-hoc destinations.
//
// Like SimClient it is not safe for concurrent use; each simulated
// probe owns its own instance, which is what keeps session state out of
// any cross-probe shared structure (a determinism requirement).
type EncryptedClient struct {
	Sim  *SimClient
	Mode TransportMode
	// Upgrade selects which targets use the encrypted transport; nil
	// upgrades every target.
	Upgrade func(netip.Addr) bool

	// Session-accounting counters, cumulative over the client's life.
	Handshakes int // full handshakes completed
	Resumed    int // queries sent on a resumed session (no handshake)
	Downgrades int // opportunistic fallbacks to Do53
	AuthFails  int // strict-profile certificate rejections

	sessions map[netip.Addr]*encSession
}

// Exchange implements Client.
func (c *EncryptedClient) Exchange(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, error) {
	resps, _, err := c.ExchangeRTT(server, query)
	return resps, err
}

// ExchangeRTT implements RTTExchanger. The returned RTT covers the full
// exchange as the client experienced it: handshake round trip included
// when one was needed, just the data round trip on a resumed session.
func (c *EncryptedClient) ExchangeRTT(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	wire, err := query.PackTo(c.Sim.Net.PayloadBuf())
	if err != nil {
		return nil, 0, err
	}
	col := collector{id: query.Header.ID, keep: true}
	err = c.exchange(server, wire, &col)
	c.Sim.Net.RecyclePayload(wire)
	if err != nil {
		return nil, 0, err
	}
	return col.msgs, col.reply.RTT, nil
}

// ExchangeReply implements ReplyExchanger, with the RTT ExchangeRTT
// reports.
func (c *EncryptedClient) ExchangeReply(server netip.AddrPort, query []byte) (Reply, error) {
	col, err := newCollector(query)
	if err == nil {
		err = c.exchange(server, query, &col)
	}
	return col.reply, err
}

// exchange runs one packed query over the transport the mode and
// target call for, offering the responses to col.
func (c *EncryptedClient) exchange(server netip.AddrPort, query []byte, col *collector) error {
	if !c.Mode.Encrypted() || (c.Upgrade != nil && !c.Upgrade(server.Addr())) {
		return c.Sim.exchange(server, query, col)
	}
	sess := c.session(server.Addr())
	if sess.downgraded {
		return c.Sim.exchange(server, query, col)
	}

	alpn := c.Mode.alpn()
	port, err := netsim.StreamPortFor(alpn)
	if err != nil {
		return err
	}
	target := netip.AddrPortFrom(server.Addr(), port)

	var handshakeRTT time.Duration
	if !sess.haveTicket {
		rtt, err := c.handshake(target, alpn, sess)
		if err != nil {
			return c.failOrDowngrade(sess, server, query, col, err)
		}
		handshakeRTT = rtt
	} else {
		c.Resumed++
	}

	err = c.data(target, alpn, sess, query, col)
	if errors.Is(err, errBadTicket) {
		// The endpoint rejected our resumption (its salt changed, or the
		// path now terminates somewhere new): redo the handshake once.
		sess.haveTicket = false
		c.Resumed--
		hrtt, herr := c.handshake(target, alpn, sess)
		if herr != nil {
			return c.failOrDowngrade(sess, server, query, col, herr)
		}
		handshakeRTT = hrtt
		err = c.data(target, alpn, sess, query, col)
	}
	if err != nil {
		return c.failOrDowngrade(sess, server, query, col, err)
	}
	col.reply.RTT += handshakeRTT
	return nil
}

// session returns (creating on demand) the per-target session state.
func (c *EncryptedClient) session(addr netip.Addr) *encSession {
	if c.sessions == nil {
		c.sessions = make(map[netip.Addr]*encSession)
	}
	s, ok := c.sessions[addr]
	if !ok {
		s = &encSession{}
		c.sessions[addr] = s
	}
	return s
}

// failOrDowngrade resolves an encrypted-channel failure per profile:
// opportunistic clients mark the target downgraded and retry the same
// query over Do53; strict clients surface the failure.
func (c *EncryptedClient) failOrDowngrade(sess *encSession, server netip.AddrPort, query []byte, col *collector, err error) error {
	if c.Mode.Strict() {
		return err
	}
	sess.downgraded = true
	c.Downgrades++
	return c.Sim.exchange(server, query, col)
}

// handshake runs the hello/helloAck round trip against target,
// validating the certificate under the client's profile and stashing
// the issued ticket on success.
func (c *EncryptedClient) handshake(target netip.AddrPort, alpn uint8, sess *encSession) (time.Duration, error) {
	pkts, err := c.Sim.Host.Exchange(c.Sim.Net, target, netsim.PackStreamHello(alpn), netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		return 0, netErr(err)
	}
	defer c.Sim.Host.Recycle(pkts)
	ackALPN, cert, ticket, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok || ackALPN != alpn {
		return 0, ErrGarbage
	}
	if c.Mode.Strict() && !cert.AuthenticatesStrict(target.Addr()) {
		c.AuthFails++
		return 0, ErrAuthFailed
	}
	sess.ticket = ticket
	sess.haveTicket = true
	c.Handshakes++
	return pkts[0].RTT(), nil
}

// errBadTicket is the internal signal that the endpoint rejected our
// resumption ticket; exchange reacts by redoing the handshake.
var errBadTicket = errors.New("core: stream endpoint rejected resumption ticket")

// data sends one query inside the session and offers the responses to
// col. An alert anywhere in the batch fails the exchange before any
// response is offered.
func (c *EncryptedClient) data(target netip.AddrPort, alpn uint8, sess *encSession, query []byte, col *collector) error {
	framed, err := dnswire.AppendTCPFrame(nil, query)
	if err != nil {
		return err
	}
	payload := netsim.PackStreamData(alpn, sess.ticket, framed)

	pkts, err := c.Sim.Host.Exchange(c.Sim.Net, target, payload, netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		return netErr(err)
	}
	defer c.Sim.Host.Recycle(pkts)
	for i := range pkts {
		if code, ok := netsim.ParseStreamAlert(pkts[i].Payload); ok {
			if code == netsim.StreamAlertBadTicket {
				return errBadTicket
			}
			return ErrGarbage
		}
	}
	for i := range pkts {
		col.add(pkts[i].Payload, pkts[i].RTT(), len(pkts))
	}
	return col.err()
}
