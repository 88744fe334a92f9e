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
	"errors"
	"net/netip"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
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
	pkts, err := c.Host.Exchange(c.Net, server, payload, netsim.ExchangeOptions{})
	// The exchange has fully drained the event queue: nothing in flight
	// references the query bytes anymore (services that stashed the
	// packet only ever read its addresses), so the buffer can go back to
	// the freelist before the responses are even parsed — response
	// payloads are distinct buffers.
	c.Net.RecyclePayload(payload)
	switch {
	case errors.Is(err, netsim.ErrTimeout):
		return nil, 0, ErrTimeout
	case errors.Is(err, netsim.ErrNoAddress):
		return nil, 0, ErrNoRoute
	case err != nil:
		return nil, 0, err
	}
	out := make([]*dnswire.Message, 0, len(pkts))
	var rtt time.Duration
	for _, p := range pkts {
		v, err := dnswire.ParseView(p.Payload)
		if err != nil {
			continue // garbage response: ignore, as a stub would
		}
		if v.Header.ID != query.Header.ID {
			continue // not ours: never materialized
		}
		if len(out) == 0 {
			rtt = p.RTT()
		}
		out = append(out, v.Message())
	}
	// The packets are fully parsed; hand the slice back to the host so
	// the next flow reuses its capacity.
	c.Host.Recycle(pkts)
	if len(out) == 0 {
		// Datagrams arrived (Host.Exchange returned some) but none
		// parsed as ours: a damaged-response fault, not silence.
		return nil, 0, ErrGarbage
	}
	return out, rtt, nil
}
