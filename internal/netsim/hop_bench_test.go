package netsim

import (
	"net/netip"
	"testing"
)

// BenchmarkRouterHop measures the per-hop path in four cases: a plain
// backbone hop, a CPE hop that masquerades a LAN packet (SNAT), the
// same hop under PresetFault(0.5), and a query a CPE diverts to its own
// service (DNAT) with the reply that conntrack spoofs back to the host.
// Each operation injects the packet and drains the network; the first
// three deliver it once more, to the next device (under faults, none or
// two times when it is lost or duplicated).
func BenchmarkRouterHop(b *testing.B) {
	b.Run("backbone", func(b *testing.B) {
		next := &sinkDev{name: "next"}
		r := NewRouter("backbone", addr("198.51.100.1"))
		r.AddRoute(pfx("8.8.8.0/24"), next)
		r.AddRoute(pfx("96.120.0.0/16"), &sinkDev{name: "access"})
		r.AddDefaultRoute(&sinkDev{name: "transit"})
		benchForward(b, NewNetwork(), r, next, Packet{
			Src: ap("96.120.0.10:30000"), Dst: ap("8.8.8.8:53"), Proto: UDP,
			TTL: DefaultTTL, Payload: []byte("query"),
		})
	})
	snatHop := func(b *testing.B, n *Network) {
		next := &sinkDev{name: "access"}
		cpe := NewRouter("cpe", addr("192.168.1.1"), addr("96.120.0.10"))
		cpe.NAT = NewNAT()
		cpe.NAT.MasqueradeV4 = addr("96.120.0.10")
		cpe.NAT.LANPrefixes = []netip.Prefix{pfx("192.168.1.0/24")}
		cpe.AddDefaultRoute(next)
		benchForward(b, n, cpe, next, Packet{
			Src: ap("192.168.1.10:49152"), Dst: ap("8.8.8.8:53"), Proto: UDP,
			TTL: DefaultTTL, Payload: []byte("query"),
		})
	}
	b.Run("cpe-snat", func(b *testing.B) { snatHop(b, NewNetwork()) })
	b.Run("faulted", func(b *testing.B) {
		n := NewNetwork()
		n.SetDefaultFault(PresetFault(0.5, 1))
		snatHop(b, n)
	})
	b.Run("cpe-dnat-reply", func(b *testing.B) {
		n := NewNetwork()
		cpe := NewRouter("cpe", addr("192.168.1.1"), addr("96.120.0.10"))
		cpe.NAT = NewNAT()
		cpe.NAT.MasqueradeV4 = addr("96.120.0.10")
		cpe.NAT.LANPrefixes = []netip.Prefix{pfx("192.168.1.0/24")}
		cpe.NAT.AddDNAT(DNATRule{Name: "intercept", Match: MatchUDPPort53, To: ap("192.168.1.1:53")})
		cpe.Bind(53, ServiceFunc(func(sc *ServiceCtx, pkt *Packet) { sc.Reply(pkt, pkt.Payload) }))
		host := NewHost("probe", addr("192.168.1.10"), netip.Addr{}, cpe)
		cpe.AddRoute(pfx("192.168.1.0/24"), host)
		cpe.AddDefaultRoute(&sinkDev{name: "access"})
		query, resolver := []byte("query"), ap("8.8.8.8:53")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pkts, err := host.Exchange(n, resolver, query, ExchangeOptions{})
			if err != nil || len(pkts) != 1 || pkts[0].Src != resolver {
				b.Fatalf("reply %v, %v: want one, spoofed from %v", pkts, err, resolver)
			}
			host.Recycle(pkts)
		}
	})
}

// benchForward injects pkt at r and drains n once per operation; r
// forwards it to next. Under a fault plane the flow state is forgotten
// every faultFlowPackets packets, as at a probe boundary, so each chain
// stays inside its lazily computed draws as a study's chains do.
func benchForward(b *testing.B, n *Network, r *Router, next *sinkDev, pkt Packet) {
	const faultFlowPackets = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%faultFlowPackets == 0 {
			n.ForgetFaultFlows()
		}
		n.Inject(r, pkt)
		if _, err := n.Run(); err != nil {
			b.Fatal(err)
		}
		if got := len(next.got); got != 1 && (n.faults == nil || got > 2) {
			b.Fatalf("%s got %d packets, want 1", next.name, got)
		}
		next.got = next.got[:0]
	}
}
