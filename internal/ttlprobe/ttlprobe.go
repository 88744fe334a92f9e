// Package ttlprobe implements the TTL-based localization the paper
// sketches as future work (§6): send the same query with increasing IP
// TTLs; the smallest TTL that still produces an answer is the hop
// distance of whoever answers. An interceptor close to the client
// (hop 1: the CPE; hop 2-3: the ISP) answers queries whose TTL could
// never have reached the real resolver.
//
// The paper could not run this on RIPE Atlas (the platform cannot set
// TTLs) or VPNGate (the VPN rewrites TTLs), and on a real host it needs
// root or SUID. The simulator has no such constraint, so the extension
// is exercised end-to-end here; for live networks the TTLClient
// interface is the seam where a raw-socket implementation would go.
package ttlprobe

import (
	"errors"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// TTLClient exchanges a query with a caller-chosen initial TTL.
type TTLClient interface {
	ExchangeTTL(server netip.AddrPort, query *dnswire.Message, ttl int) ([]*dnswire.Message, error)
}

// SimTTLClient adapts a simulated host.
type SimTTLClient struct {
	Net  *netsim.Network
	Host *netsim.Host
}

// ExchangeTTL implements TTLClient.
func (c *SimTTLClient) ExchangeTTL(server netip.AddrPort, query *dnswire.Message, ttl int) ([]*dnswire.Message, error) {
	payload, err := query.PackTo(c.Net.PayloadBuf())
	if err != nil {
		return nil, err
	}
	pkts, err := c.Host.Exchange(c.Net, server, payload, netsim.ExchangeOptions{TTL: ttl})
	c.Net.RecyclePayload(payload)
	if err != nil {
		return nil, err
	}
	var out []*dnswire.Message
	for _, p := range pkts {
		if v, err := dnswire.ParseView(p.Payload); err == nil && v.Header.ID == query.Header.ID {
			out = append(out, v.Message())
		}
	}
	c.Host.Recycle(pkts)
	if len(out) == 0 {
		return nil, netsim.ErrTimeout
	}
	return out, nil
}

// Result is one ladder run.
type Result struct {
	Server netip.AddrPort
	// AnsweredAt[t] reports whether the TTL-t probe got an answer.
	AnsweredAt map[int]bool
	// FirstTTL is the smallest answering TTL (0 = nothing answered).
	FirstTTL int
	// MaxTTL is the ladder's ceiling.
	MaxTTL int
}

// Interceptor hop-distance interpretation. The CPE is the first hop;
// anything inside the ISP answers within a few hops; a TTL that only
// succeeds at the full path length is consistent with no interception.
const (
	// HopCPE is the CPE's distance from a LAN host.
	HopCPE = 1
)

// ErrNoAnswer means no rung of the ladder produced an answer.
var ErrNoAnswer = errors.New("ttlprobe: no TTL produced an answer")

// Ladder probes server with TTL 1..maxTTL using fresh copies of query.
// It stops early once a rung answers (higher TTLs also reach whatever
// answered).
func Ladder(c TTLClient, server netip.AddrPort, name dnswire.Name, maxTTL int) (Result, error) {
	if maxTTL <= 0 {
		maxTTL = 16
	}
	res := Result{Server: server, AnsweredAt: make(map[int]bool), MaxTTL: maxTTL}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		q := dnswire.NewQuery(uint16(0x7000+ttl), name, dnswire.TypeA, dnswire.ClassINET)
		resps, err := c.ExchangeTTL(server, q, ttl)
		answered := err == nil && len(resps) > 0
		res.AnsweredAt[ttl] = answered
		if answered {
			res.FirstTTL = ttl
			return res, nil
		}
	}
	return res, ErrNoAnswer
}

// Classify interprets a ladder against a baseline path length: the
// number of hops a clean path to the resolver needs. It returns a
// human-readable location class.
func Classify(r Result, cleanPathHops int) string {
	switch {
	case r.FirstTTL == 0:
		return "no answer at any TTL"
	case r.FirstTTL == HopCPE:
		return "answered at hop 1: the CPE itself"
	case r.FirstTTL < cleanPathHops:
		return "answered before the path's end: an on-path interceptor"
	default:
		return "answered only at full path length: consistent with no interception"
	}
}
