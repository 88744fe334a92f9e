package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// ErrTimeout is what a host observes when no response arrives: either
// the query or the answer was dropped somewhere. The paper treats
// timeouts conservatively — never as evidence of interception.
var ErrTimeout = errors.New("netsim: query timed out (no response)")

// ErrNoAddress means the host has no address of the family the
// destination requires (e.g. a v4-only probe asked to query a v6
// resolver).
var ErrNoAddress = errors.New("netsim: host has no address in destination family")

// Host is an endpoint device: the measurement probe, or any LAN client.
// It can send datagrams through its gateway and collect the responses.
type Host struct {
	Name    string
	Addr4   netip.Addr // zero if the host is v6-only
	Addr6   netip.Addr // zero if the host is v4-only
	Gateway Device

	// Delay is the host's LAN link latency (zero = network default).
	Delay time.Duration

	nextPort uint16
	inbox    map[uint16][]Packet
	// spare holds drained inbox slices returned via Recycle, reused for
	// later flows so steady-state exchanges stop allocating per query.
	spare [][]Packet
	// net is the network of the host's last Exchange, so Recycle can
	// return response payload buffers to its freelist.
	net *Network
}

// NewHost creates a host. Either address may be the zero Addr.
func NewHost(name string, addr4, addr6 netip.Addr, gw Device) *Host {
	h := new(Host)
	h.Reset(name, addr4, addr6, gw)
	return h
}

// Reset returns the host to the state NewHost gives it, keeping its
// storage: the inbox is emptied in place (recycled slices stay spare)
// and ephemeral ports restart at 49152.
func (h *Host) Reset(name string, addr4, addr6 netip.Addr, gw Device) {
	*h = Host{
		Name:     name,
		Addr4:    addr4,
		Addr6:    addr6,
		Gateway:  gw,
		nextPort: 49152,
		inbox:    clearOrMake(h.inbox),
		spare:    h.spare,
	}
}

// DeviceName implements Device.
func (h *Host) DeviceName() string { return h.Name }

// EgressDelay implements EgressDelayer.
func (h *Host) EgressDelay() time.Duration { return h.Delay }

// Receive implements Device: packets addressed to the host land in its
// per-port inbox with an arrival timestamp; anything else is ignored
// (hosts do not forward).
func (h *Host) Receive(ctx *Ctx, pkt *Packet) {
	if pkt.Dst.Addr() != h.Addr4 && pkt.Dst.Addr() != h.Addr6 {
		ctx.Drop(pkt, "not for this host")
		return
	}
	pkt.ArrivedAt = ctx.Now()
	if pkt.Proto == ICMP {
		// Time Exceeded: file it under the original flow's source port
		// so the waiting Exchange sees it.
		if srcPort, _, ok := ParseTimeExceeded(*pkt); ok {
			ctx.Trace(TraceDeliver, pkt, "host inbox (icmp)")
			h.deliver(srcPort, *pkt)
			return
		}
		ctx.Drop(pkt, "unparseable icmp")
		return
	}
	ctx.Trace(TraceDeliver, pkt, "host inbox")
	h.deliver(pkt.Dst.Port(), *pkt)
}

// deliver files a packet in the per-port inbox, reusing a recycled slice
// for the port's first packet when one is available.
func (h *Host) deliver(port uint16, pkt Packet) {
	q, ok := h.inbox[port]
	if !ok && len(h.spare) > 0 {
		q = h.spare[len(h.spare)-1]
		h.spare = h.spare[:len(h.spare)-1]
	}
	h.inbox[port] = append(q, pkt)
}

// Recycle returns a response slice obtained from Exchange to the host's
// inbox freelist, and the packets' payload buffers to the network's
// payload freelist. Callers must be completely done with the packets:
// dnswire.Unpack deep-copies, so parsed messages stay valid, but raw
// payload slices must not be retained past this call. Fault duplication
// delivers two packets sharing one payload buffer, so payloads are
// deduplicated by base pointer before recycling.
func (h *Host) Recycle(pkts []Packet) {
	if h.net != nil {
	recycle:
		for i := range pkts {
			p := pkts[i].Payload
			if len(p) == 0 {
				continue
			}
			for j := 0; j < i; j++ {
				if q := pkts[j].Payload; len(q) > 0 && &q[0] == &p[0] {
					continue recycle // duplicate sharing the same buffer
				}
			}
			h.net.RecyclePayload(p)
		}
	}
	if cap(pkts) == 0 || len(h.spare) >= 8 {
		return
	}
	h.spare = append(h.spare, pkts[:0])
}

// srcFor picks the host address matching the destination family.
func (h *Host) srcFor(dst netip.Addr) (netip.Addr, error) {
	if dst.Is6() && !dst.Is4In6() {
		if !h.Addr6.IsValid() {
			return netip.Addr{}, fmt.Errorf("%w: %s is IPv6", ErrNoAddress, dst)
		}
		return h.Addr6, nil
	}
	if !h.Addr4.IsValid() {
		return netip.Addr{}, fmt.Errorf("%w: %s is IPv4", ErrNoAddress, dst)
	}
	return h.Addr4, nil
}

// ephemeralPort hands out a fresh source port per flow; uniqueness per
// outstanding query is what lets conntrack (and therefore interceptors)
// disambiguate flows, exactly as real stub resolvers behave.
func (h *Host) ephemeralPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort < 49152 {
		h.nextPort = 49152
	}
	return p
}

// ExchangeOptions tune one Exchange call.
type ExchangeOptions struct {
	// TTL overrides the initial hop limit; 0 means DefaultTTL. The
	// TTL-ladder localization extension uses small values here.
	TTL int
	// Proto overrides the transport protocol; the zero value means UDP.
	// Encrypted stream sessions (stream.go) exchange their frames over
	// TCP, which keeps them invisible to the UDP-gated interception
	// rules and the UDP-gated fault plane alike.
	Proto Proto
}

// Exchange sends one datagram to dst and drains every response that
// arrives on the flow's source port after the network settles. Multiple
// responses occur under query replication. No response returns
// ErrTimeout.
func (h *Host) Exchange(n *Network, dst netip.AddrPort, payload []byte, opts ExchangeOptions) ([]Packet, error) {
	if h.Gateway == nil {
		return nil, errors.New("netsim: host has no gateway")
	}
	h.net = n
	src, err := h.srcFor(dst.Addr())
	if err != nil {
		return nil, err
	}
	ttl := opts.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	proto := opts.Proto
	if proto == 0 {
		proto = UDP
	}
	port := h.ephemeralPort()
	pkt := Packet{
		Src:     netip.AddrPortFrom(src, port),
		Dst:     dst,
		Proto:   proto,
		TTL:     ttl,
		Payload: payload,
		SentAt:  n.Now(),
	}
	n.Inject(h.Gateway, pkt)
	if _, err := n.Run(); err != nil {
		return nil, err
	}
	got := h.inbox[port]
	delete(h.inbox, port)
	if len(got) == 0 {
		return nil, ErrTimeout
	}
	return got, nil
}
