// Package core implements the paper's contribution: a client-side
// technique that detects transparent DNS interception and localizes the
// interceptor — the client's own CPE, the client's ISP, or somewhere
// beyond (§3, Figure 2).
//
// The technique needs nothing but the ability to send DNS queries, so
// the detector is written against a one-method transport interface; the
// same Detector runs over the packet-level simulator (tests, pilot
// study) and over real UDP sockets (cmd/dnsloc on a live network).
package core

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// ErrTimeout reports that no response arrived for a query. The technique
// treats timeouts conservatively: they are never evidence of
// interception (§3.1).
var ErrTimeout = errors.New("core: query timed out")

// ErrNoRoute reports that the vantage has no connectivity in the
// destination's address family (e.g. a v4-only probe asked for v6).
var ErrNoRoute = errors.New("core: no connectivity in destination address family")

// ErrGarbage reports that something answered but nothing parsed as a
// response to our query — truncated datagrams, corrupt payloads, or
// mismatched IDs. Like a timeout it is never interception evidence
// (there is no answer to validate), but it is a distinct fault signal:
// the path is damaging responses, not dropping them.
var ErrGarbage = errors.New("core: only unparseable responses arrived")

// ErrAuthFailed reports that a strict-profile encrypted transport
// rejected the server's certificate — the dialed resolver cannot be
// authenticated, which is what a terminate-and-intercept middlebox
// looks like to a strict DoT/DoH client. Permanent: retrying re-dials
// the same interceptor.
var ErrAuthFailed = errors.New("core: encrypted transport certificate does not authenticate the resolver")

// ErrRefused reports that the transport-level connection was refused
// (ICMP port unreachable / TCP RST) — a transient condition under
// resolver rate limiting, distinct from a DNS REFUSED rcode, which is
// an in-band answer the detector classifies itself.
var ErrRefused = errors.New("core: connection refused")

// Client is the detector's transport: send one DNS query, collect the
// response(s). Multiple responses occur under query replication; the
// first is what a stub resolver would consume.
type Client interface {
	Exchange(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, error)
}

// RTTExchanger is an optional Client extension: transports that can
// measure a query's round-trip time return it alongside the responses.
// The detector records it per probe result — an answer arriving much
// faster than any plausible path to the target's nearest anycast site
// is itself a proximity hint about the interceptor. Returning the RTT
// (rather than stashing it on the client) keeps the interface safe for
// the detector's parallel mode.
type RTTExchanger interface {
	ExchangeRTT(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, time.Duration, error)
}

// ReplyExchanger is an optional Client extension for transports that
// take the query as packed wire bytes and reduce the responses to it
// themselves, reading them in place instead of materializing a Message
// per response. The transport reads query only during the call. The
// detector prefers it over RTTExchanger and Exchange.
type ReplyExchanger interface {
	ExchangeReply(server netip.AddrPort, query []byte) (Reply, error)
}

// Reply is everything the detector reads from the responses to one
// query. The first response is what a stub resolver would consume.
type Reply struct {
	// Count is the number of responses; more than one means the query
	// was replicated.
	Count int
	// RCode is the first response's rcode.
	RCode dnswire.RCode
	// Answer is the first response's first TXT answer, its strings
	// joined, or when it has none its first A or AAAA answer as text.
	Answer string
	// Answered reports whether the first response had such an answer.
	Answered bool
	// RTT is the round-trip time of the first response (zero when the
	// transport does not measure it).
	RTT time.Duration
}

// ReplyOf reduces materialized responses to a Reply. It is the
// detector's path for transports without ExchangeReply: the real-socket
// clients and any wrapper that forwards only Exchange or ExchangeRTT.
func ReplyOf(resps []*dnswire.Message, rtt time.Duration) Reply {
	if len(resps) == 0 {
		return Reply{}
	}
	m := resps[0]
	r := Reply{Count: len(resps), RCode: m.Header.RCode, RTT: rtt}
	if txt, ok := m.FirstTXT(); ok {
		r.Answer, r.Answered = publicdns.InternString(txt), true
	} else if addr, ok := m.FirstAddr(); ok {
		var buf [64]byte
		r.Answer, r.Answered = publicdns.Intern(addr.AppendTo(buf[:0])), true
	}
	return r
}

// replyOf is ReplyOf of one response, read in place from its view. A
// standard answer is the interned string (publicdns.Intern), so only a
// non-standard answer allocates.
func replyOf(v *dnswire.View, rtt time.Duration) Reply {
	r := Reply{Count: 1, RCode: v.Header.RCode, RTT: rtt}
	var buf [256]byte
	var addr netip.Addr
	for ans := v.Answers(); ans.Next(); {
		if txt, ok := ans.AppendTXT(buf[:0]); ok {
			r.Answer, r.Answered = publicdns.Intern(txt), true
			return r
		}
		if a, ok := ans.Addr(); ok && !addr.IsValid() {
			addr = a
		}
	}
	if addr.IsValid() {
		r.Answer, r.Answered = publicdns.Intern(addr.AppendTo(buf[:0])), true
	}
	return r
}

// collector gathers the responses to one query for a simulated
// transport's packet loop, which hands it every datagram that arrived.
// It keeps only those that parse as responses to the query's ID, as a
// stub would, and either reduces them to a Reply or, with keep set,
// materializes each as a Message for the Client and RTTExchanger APIs.
type collector struct {
	id    uint16
	keep  bool
	msgs  []*dnswire.Message
	reply Reply
}

// newCollector prepares to collect the responses to a packed query.
func newCollector(query []byte) (collector, error) {
	if len(query) < 2 {
		return collector{}, dnswire.ErrShortMessage
	}
	return collector{id: binary.BigEndian.Uint16(query)}, nil
}

// add offers one datagram of a batch of n that arrived rtt after the
// query was sent.
func (c *collector) add(payload []byte, rtt time.Duration, n int) {
	v, err := dnswire.ParseView(payload)
	if err != nil || v.Header.ID != c.id {
		return // garbage, or not ours: never materialized
	}
	switch {
	case c.reply.Count > 0:
		c.reply.Count++
	case c.keep:
		c.reply = Reply{Count: 1, RTT: rtt}
	default:
		c.reply = replyOf(&v, rtt)
	}
	if c.keep {
		if c.msgs == nil {
			c.msgs = make([]*dnswire.Message, 0, n)
		}
		c.msgs = append(c.msgs, v.Message())
	}
}

// err is the exchange's outcome once every datagram was offered:
// ErrGarbage when datagrams arrived but none was a response to the
// query — a damaged-response fault, not silence.
func (c *collector) err() error {
	if c.reply.Count == 0 {
		return ErrGarbage
	}
	return nil
}

// netErr maps the simulator's transport errors to the detector's.
func netErr(err error) error {
	switch {
	case errors.Is(err, netsim.ErrTimeout):
		return ErrTimeout
	case errors.Is(err, netsim.ErrNoAddress):
		return ErrNoRoute
	}
	return err
}

// SimClient adapts a simulated host to the Client interface. It is NOT
// safe for concurrent use: the simulator is a single-threaded event
// loop. Do not combine it with Detector.Parallel.
type SimClient struct {
	Net  *netsim.Network
	Host *netsim.Host
}

// Exchange implements Client over the simulator.
func (c *SimClient) Exchange(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, error) {
	resps, _, err := c.ExchangeRTT(server, query)
	return resps, err
}

// ExchangeRTT implements RTTExchanger with the virtual-clock RTT of the
// first response.
func (c *SimClient) ExchangeRTT(server netip.AddrPort, query *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	payload, err := query.PackTo(c.Net.PayloadBuf())
	if err != nil {
		return nil, 0, err
	}
	col := collector{id: query.Header.ID, keep: true}
	if err := c.send(server, payload, &col); err != nil {
		return nil, 0, err
	}
	return col.msgs, col.reply.RTT, nil
}

// ExchangeReply implements ReplyExchanger with the virtual-clock RTT of
// the first response.
func (c *SimClient) ExchangeReply(server netip.AddrPort, query []byte) (Reply, error) {
	col, err := newCollector(query)
	if err == nil {
		err = c.exchange(server, query, &col)
	}
	return col.reply, err
}

// exchange sends a copy of the packed query to server and offers every
// datagram that came back to col.
func (c *SimClient) exchange(server netip.AddrPort, query []byte, col *collector) error {
	return c.send(server, append(c.Net.PayloadBuf(), query...), col)
}

// send is the client's one packet loop: it sends payload, a buffer from
// the network's freelist that it recycles, to server and offers every
// datagram that came back to col.
func (c *SimClient) send(server netip.AddrPort, payload []byte, col *collector) error {
	pkts, err := c.Host.Exchange(c.Net, server, payload, netsim.ExchangeOptions{})
	// The exchange has fully drained the event queue: nothing in flight
	// references the query bytes anymore (services that stashed the
	// packet only ever read its addresses), so the buffer can go back to
	// the freelist before the responses are even parsed — response
	// payloads are distinct buffers.
	c.Net.RecyclePayload(payload)
	if err != nil {
		return netErr(err)
	}
	for i := range pkts {
		col.add(pkts[i].Payload, pkts[i].RTT(), len(pkts))
	}
	// The packets are fully read; hand the slice back to the host so
	// the next flow reuses its capacity.
	c.Host.Recycle(pkts)
	return col.err()
}
