// Package cpe models Customer Premises Equipment — the home routers the
// paper implicates in transparent DNS interception.
//
// A CPE device is a netsim.Router with NAT between its LAN and WAN, plus
// a DNS forwarder (dnsmasq-style) optionally bound to port 53. The
// interception mechanism is the one the paper's §5 case study documents
// on the Arris/Technicolor XB6: an RDK-B firewall DNAT rule that rewrites
// every LAN-originated port-53 packet to the CPE's own forwarder, which
// relays it to the ISP resolver. Because the rule lives in PREROUTING,
// it catches queries addressed to public resolvers *and* queries
// addressed to the CPE's own public IP — the asymmetry the localization
// technique exploits.
package cpe

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// InterceptSpec describes which port-53 destinations a CPE diverts to
// its own forwarder. The zero value intercepts nothing.
type InterceptSpec struct {
	// AllV4 intercepts every IPv4 destination.
	AllV4 bool
	// TargetsV4 intercepts only these IPv4 destinations (ignored when
	// AllV4 is set).
	TargetsV4 []netip.Addr
	// TargetsV6 intercepts these IPv6 destinations. The paper found v6
	// interception far rarer than v4 (Table 4), so most specs leave it
	// empty.
	TargetsV6 []netip.Addr
}

// Active reports whether the spec intercepts anything.
func (s InterceptSpec) Active() bool {
	return s.AllV4 || len(s.TargetsV4) > 0 || len(s.TargetsV6) > 0
}

// matchesV4 reports whether an IPv4 destination is intercepted.
func (s InterceptSpec) matchesV4(dst netip.Addr) bool {
	return s.AllV4 || slices.Contains(s.TargetsV4, dst)
}

// matchesV6 reports whether an IPv6 destination is intercepted.
func (s InterceptSpec) matchesV6(dst netip.Addr) bool {
	return slices.Contains(s.TargetsV6, dst)
}

// Config describes one CPE device.
type Config struct {
	// Name labels the device in traces.
	Name string

	// LANAddr/LANPrefix are the private side; WANAddr is the public side.
	LANAddr   netip.Addr
	LANPrefix netip.Prefix
	WANAddr   netip.Addr

	// LANAddr6/LANPrefix6/WANAddr6 enable IPv6. Homes route v6 globally
	// (no NAT), as deployed dual-stack residential networks do.
	LANAddr6   netip.Addr
	LANPrefix6 netip.Prefix
	WANAddr6   netip.Addr

	// Upstream is the forwarder's resolver — for a rented XB6, the ISP
	// resolver.
	Upstream netip.AddrPort

	// Persona is the forwarder's CHAOS fingerprint (Table 5 strings).
	Persona dnsserver.ChaosPersona

	// ForwardUnhandledChaos relays debugging queries the persona does
	// not answer upstream — the §6 misclassification configuration.
	ForwardUnhandledChaos bool

	// WANPort53Open leaves the forwarder reachable on the WAN address
	// even without interception (an "open forwarder" CPE).
	WANPort53Open bool

	// Intercept is the DNAT interception behaviour.
	Intercept InterceptSpec

	// Encrypted is what the CPE does with LAN-originated encrypted DNS
	// (DoT/DoH): pass it, block it to force a downgrade, or terminate
	// the sessions at its own forwarder behind an untrusted certificate
	// — the three router behaviors the XDRI study observed.
	Encrypted dnsserver.EncryptedPolicy

	// Metrics, when non-nil, is installed on the built forwarder; the
	// study engine shares one set across every CPE in a world.
	Metrics *dnsserver.ForwarderMetrics

	// Adversary, when non-nil, makes the forwarder evade CHAOS
	// fingerprinting on diverted flows (see dnsserver.Adversary). Direct
	// queries to the CPE itself keep the honest persona.
	Adversary *dnsserver.Adversary
}

// Device is a built CPE. It is used by pointer only: the match
// closures Rebind installs refer to the Device that made them.
type Device struct {
	Config    Config
	Router    *netsim.Router
	Forwarder *dnsserver.Forwarder

	// The parts Rebind reuses besides Router and Forwarder. ep is kept
	// while a config needs no terminating endpoint; host is the LAN
	// host AttachHost(name, 0) hands out.
	ep   *dnsserver.StreamEndpoint
	host *netsim.Host

	// The device's DNAT matches and encrypted-DNS filter, made once per
	// Device. They read d.Config when called, so a rebind retargets
	// them without making new closures.
	matchXDNS4, matchXDNS6 func(*netsim.Packet) bool
	matchEnc4, matchEnc6   func(*netsim.Packet) bool
	blockEnc               func(*netsim.Packet) (bool, string)
}

// Build wires a CPE from its config.
func Build(cfg Config) *Device { return new(Device).Rebind(cfg) }

// Rebind turns d into the CPE cfg describes and returns d. It reuses
// d's router, NAT, forwarder, stream endpoint and LAN host, each reset
// to the state a new one starts in, so a rebound device behaves exactly
// like Build(cfg) — Build is Rebind on a new Device. The device must be
// idle and detached first: no packet of its previous binding in flight
// and no ISP route pointing at it. Hosts and forwarders handed out
// before are the same objects afterwards, rebound too.
func (d *Device) Rebind(cfg Config) *Device {
	if d.Router == nil {
		d.Router = new(netsim.Router)
		d.matchXDNS4 = func(pkt *netsim.Packet) bool { return d.divertsDNS(pkt, false) }
		d.matchXDNS6 = func(pkt *netsim.Packet) bool { return d.divertsDNS(pkt, true) }
		d.matchEnc4 = func(pkt *netsim.Packet) bool { return d.encryptedDNS(pkt) && !pkt.IsIPv6() }
		d.matchEnc6 = func(pkt *netsim.Packet) bool { return d.encryptedDNS(pkt) && pkt.IsIPv6() }
		d.blockEnc = func(pkt *netsim.Packet) (bool, string) {
			if d.encryptedDNS(pkt) {
				return true, "cpe blocks encrypted DNS"
			}
			return false, ""
		}
	}
	d.Config = cfg
	r, nat := d.Router, d.Router.NAT
	r.Reset(cfg.Name, cfg.LANAddr, cfg.WANAddr)
	r.Delay = 500 * time.Microsecond // home uplink
	r.RouterID = cfg.LANAddr         // what home traceroutes show as hop 1
	if cfg.LANAddr6.IsValid() {
		r.AddAddr(cfg.LANAddr6)
	}
	if cfg.WANAddr6.IsValid() {
		r.AddAddr(cfg.WANAddr6)
	}

	if nat == nil {
		nat = new(netsim.NAT)
	}
	nat.Reset()
	nat.MasqueradeV4 = cfg.WANAddr
	nat.LANPrefixes = append(nat.LANPrefixes, cfg.LANPrefix)
	if cfg.LANPrefix6.IsValid() {
		nat.LANPrefixes = append(nat.LANPrefixes, cfg.LANPrefix6)
	}
	r.NAT = nat

	if d.Forwarder == nil {
		d.Forwarder = new(dnsserver.Forwarder)
	}
	fwd := d.Forwarder
	fwd.Reset(cfg.Persona, cfg.WANAddr, cfg.Upstream)
	fwd.ForwardUnhandledChaos = cfg.ForwardUnhandledChaos
	fwd.Metrics = cfg.Metrics
	fwd.Adversary = cfg.Adversary
	r.Bind(53, fwd)
	if !cfg.WANPort53Open {
		// The forwarder serves the LAN but the WAN-side port is
		// firewalled: queries to the public IP go unanswered...
		r.CloseOn(cfg.WANAddr, 53)
		if cfg.WANAddr6.IsValid() {
			r.CloseOn(cfg.WANAddr6, 53)
		}
		// ...unless the interception DNAT rule redirects them first,
		// which is exactly how an intercepting CPE betrays itself.
	}

	d.installInterception()
	d.installEncrypted()
	return d
}

// encryptedDNS matches LAN-originated encrypted-DNS stream traffic.
func (d *Device) encryptedDNS(pkt *netsim.Packet) bool {
	cfg := &d.Config
	if pkt.Proto != netsim.TCP {
		return false
	}
	if p := pkt.Dst.Port(); p != netsim.PortDoT && p != netsim.PortDoH {
		return false
	}
	src := pkt.Src.Addr()
	return cfg.LANPrefix.Contains(src.Unmap()) ||
		(cfg.LANPrefix6.IsValid() && cfg.LANPrefix6.Contains(src))
}

// installEncrypted applies the CPE's encrypted-DNS policy. Block is an
// input-filter DROP (clients observe a timeout and, if opportunistic,
// downgrade to port 53 — where installInterception's rules apply).
// Terminate DNATs the stream to the CPE's own endpoint, which fronts
// the forwarder behind a certificate no client trusts.
func (d *Device) installEncrypted() {
	cfg := &d.Config
	switch cfg.Encrypted {
	case dnsserver.EncBlock:
		d.Router.AddInputFilter(d.blockEnc)
	case dnsserver.EncTerminate:
		if d.ep == nil {
			d.ep = new(dnsserver.StreamEndpoint)
		}
		*d.ep = dnsserver.StreamEndpoint{
			// Self-signed: names the CPE itself, trusted by no one.
			Cert:  netsim.StreamCert{Subject: cfg.WANAddr},
			Inner: d.Forwarder,
		}
		d.Router.BindOn(cfg.LANAddr, netsim.PortDoT, d.ep)
		d.Router.NAT.AddDNAT(netsim.DNATRule{
			Name:  "enc-terminate-v4",
			Match: d.matchEnc4,
			To:    netip.AddrPortFrom(cfg.LANAddr, netsim.PortDoT),
		})
		if cfg.LANAddr6.IsValid() {
			d.Router.BindOn(cfg.LANAddr6, netsim.PortDoT, d.ep)
			d.Router.NAT.AddDNAT(netsim.DNATRule{
				Name:  "enc-terminate-v6",
				Match: d.matchEnc6,
				To:    netip.AddrPortFrom(cfg.LANAddr6, netsim.PortDoT),
			})
		}
	}
}

// divertsDNS is the XDNS-style match: a UDP port-53 packet of the given
// family, from the LAN, to a destination the intercept spec covers.
func (d *Device) divertsDNS(pkt *netsim.Packet, v6 bool) bool {
	cfg := &d.Config
	if pkt.Proto != netsim.UDP || pkt.Dst.Port() != 53 || pkt.IsIPv6() != v6 {
		return false
	}
	src := pkt.Src.Addr()
	lanSrc := cfg.LANPrefix.Contains(src.Unmap()) ||
		(cfg.LANPrefix6.IsValid() && cfg.LANPrefix6.Contains(src)) ||
		// Queries addressed to the CPE's own public IP arrive with a
		// LAN source too; DNAT must also catch queries a LAN host
		// sends directly to the WAN address.
		src == cfg.WANAddr || src == cfg.WANAddr6
	if !lanSrc {
		return false
	}
	if v6 {
		return cfg.Intercept.matchesV6(pkt.Dst.Addr())
	}
	return cfg.Intercept.matchesV4(pkt.Dst.Addr())
}

// installInterception adds the XDNS-style DNAT rules.
func (d *Device) installInterception() {
	cfg := &d.Config
	spec := cfg.Intercept
	if spec.AllV4 || len(spec.TargetsV4) > 0 {
		d.Router.NAT.AddDNAT(netsim.DNATRule{
			Name:  "xdns-v4",
			Match: d.matchXDNS4,
			To:    netip.AddrPortFrom(cfg.LANAddr, 53),
		})
	}
	if len(spec.TargetsV6) > 0 && cfg.LANAddr6.IsValid() {
		d.Router.NAT.AddDNAT(netsim.DNATRule{
			Name:  "xdns-v6",
			Match: d.matchXDNS6,
			To:    netip.AddrPortFrom(cfg.LANAddr6, 53),
		})
	}
}

// SetUplink points the CPE's default route at the ISP access device.
func (d *Device) SetUplink(next netsim.Device) {
	d.Router.AddDefaultRoute(next)
}

// AttachHost creates a LAN host behind the CPE and wires routes both
// ways. hostIdx picks distinct LAN addresses for multiple hosts; index
// 0 is the device's own LAN host, which later calls rebind instead of
// replacing.
func (d *Device) AttachHost(name string, hostIdx int) *netsim.Host {
	a4 := d.Config.LANAddr.As4()
	a4[3] += byte(1 + hostIdx)
	hostV4 := netip.AddrFrom4(a4)

	var hostV6 netip.Addr
	if d.Config.LANAddr6.IsValid() {
		a6 := d.Config.LANAddr6.As16()
		a6[15] += byte(1 + hostIdx)
		hostV6 = netip.AddrFrom16(a6)
	}

	var h *netsim.Host
	if hostIdx == 0 && d.host != nil {
		h = d.host // the device's own LAN host, rebound
	} else {
		h = new(netsim.Host)
		if hostIdx == 0 {
			d.host = h
		}
	}
	h.Reset(name, hostV4, hostV6, d.Router)
	h.Delay = 200 * time.Microsecond // LAN hop
	d.Router.AddRoute(netip.PrefixFrom(hostV4, 32), h)
	if hostV6.IsValid() {
		d.Router.AddRoute(netip.PrefixFrom(hostV6, 128), h)
	}
	return h
}

// NewPlain builds a CPE that forwards faithfully and firewalls port 53
// on its WAN side — the common, well-behaved case.
func NewPlain(name string, lan netip.Prefix, wan netip.Addr, upstream netip.AddrPort) Config {
	return Config{
		Name:      name,
		LANAddr:   firstHost(lan),
		LANPrefix: lan,
		WANAddr:   wan,
		Upstream:  upstream,
		Persona:   dnsserver.PersonaDnsmasq,
	}
}

// firstHost returns the .1 (or ::1) address of a prefix.
func firstHost(p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		a := p.Addr().As4()
		a[3] |= 1
		return netip.AddrFrom4(a)
	}
	a := p.Addr().As16()
	a[15] |= 1
	return netip.AddrFrom16(a)
}

// String describes the device briefly.
func (d *Device) String() string {
	mode := "plain"
	switch {
	case d.Config.Intercept.Active():
		mode = "intercepting"
	case d.Config.WANPort53Open:
		mode = "open-forwarder"
	}
	return fmt.Sprintf("cpe %s (%s, wan %s)", d.Config.Name, mode, d.Config.WANAddr)
}
