package netsim

import (
	"net/netip"
	"testing"
)

// dnat runs the PREROUTING DNAT step on a copy of pkt, as Router.Receive
// does: match, then rewrite in place.
func dnat(n *NAT, pkt Packet) (Packet, bool) {
	rule := n.matchDNAT(&pkt)
	if rule == nil {
		return pkt, false
	}
	n.rewriteDNAT(&pkt, rule)
	return pkt, true
}

func TestSNATAllocatesAndRestores(t *testing.T) {
	n := NewNAT()
	n.MasqueradeV4 = addr("96.120.0.10")
	n.LANPrefixes = []netip.Prefix{pfx("10.0.0.0/24")}

	out := Packet{Proto: UDP, Src: ap("10.0.0.2:5000"), Dst: ap("8.8.8.8:53")}
	tr := out
	if !n.applySNAT(&tr) {
		t.Fatal("SNAT did not fire")
	}
	if tr.Src.Addr() != addr("96.120.0.10") {
		t.Errorf("masqueraded src = %s", tr.Src)
	}

	reply := Packet{Proto: UDP, Src: ap("8.8.8.8:53"), Dst: tr.Src}
	back := reply
	if !n.reverseSNAT(&back) {
		t.Fatal("reverse SNAT did not fire")
	}
	if back.Dst != ap("10.0.0.2:5000") {
		t.Errorf("restored dst = %s", back.Dst)
	}
}

func TestSNATIgnoresNonLANSources(t *testing.T) {
	n := NewNAT()
	n.MasqueradeV4 = addr("96.120.0.10")
	n.LANPrefixes = []netip.Prefix{pfx("10.0.0.0/24")}
	out := Packet{Proto: UDP, Src: ap("192.0.2.9:5000"), Dst: ap("8.8.8.8:53")}
	if n.applySNAT(&out) {
		t.Error("SNAT fired for a non-LAN source")
	}
}

func TestSNATReusesPortPerFlow(t *testing.T) {
	n := NewNAT()
	n.MasqueradeV4 = addr("96.120.0.10")
	n.LANPrefixes = []netip.Prefix{pfx("10.0.0.0/24")}
	out := Packet{Proto: UDP, Src: ap("10.0.0.2:5000"), Dst: ap("8.8.8.8:53")}
	a, b := out, out
	n.applySNAT(&a)
	n.applySNAT(&b)
	if a.Src != b.Src {
		t.Errorf("same flow translated to %s and %s", a.Src, b.Src)
	}
	// Different source port → different external port.
	out2 := Packet{Proto: UDP, Src: ap("10.0.0.2:5001"), Dst: ap("8.8.8.8:53")}
	c := out2
	n.applySNAT(&c)
	if c.Src == a.Src {
		t.Error("distinct flows share an external port")
	}
}

func TestSNATPortWraparound(t *testing.T) {
	n := NewNAT()
	n.nextPort = 65534
	p1 := n.allocPort()
	p2 := n.allocPort()
	p3 := n.allocPort()
	if p1 != 65534 || p2 != 65535 {
		t.Errorf("ports = %d,%d", p1, p2)
	}
	if p3 < 30000 {
		t.Errorf("wraparound landed at %d, below the dynamic range", p3)
	}
}

func TestDNATConntrackIsolation(t *testing.T) {
	// Two clients intercepted to the same target get independent
	// reverse mappings.
	n := NewNAT()
	n.AddDNAT(DNATRule{Name: "x", Match: MatchUDPPort53, To: ap("10.0.0.1:53")})

	q1 := Packet{Proto: UDP, Src: ap("192.168.1.2:40000"), Dst: ap("8.8.8.8:53")}
	q2 := Packet{Proto: UDP, Src: ap("192.168.1.3:40000"), Dst: ap("1.1.1.1:53")}
	r1, ok1 := dnat(n, q1)
	r2, ok2 := dnat(n, q2)
	if !ok1 || !ok2 || r1.Dst != ap("10.0.0.1:53") || r2.Dst != ap("10.0.0.1:53") {
		t.Fatalf("dnat: %v %v", r1, r2)
	}

	rep1 := Packet{Proto: UDP, Src: ap("10.0.0.1:53"), Dst: ap("192.168.1.2:40000")}
	rep2 := Packet{Proto: UDP, Src: ap("10.0.0.1:53"), Dst: ap("192.168.1.3:40000")}
	b1 := rep1
	ok := n.reverseDNAT(&b1)
	if !ok || b1.Src != ap("8.8.8.8:53") {
		t.Errorf("reverse 1 = %v,%t", b1, ok)
	}
	b2 := rep2
	ok = n.reverseDNAT(&b2)
	if !ok || b2.Src != ap("1.1.1.1:53") {
		t.Errorf("reverse 2 = %v,%t", b2, ok)
	}
	// Conntrack entries are consumed.
	if n.reverseDNAT(&rep1) {
		t.Error("conntrack entry survived its reply")
	}
}

func TestDNATSkipsAlreadyTargeted(t *testing.T) {
	n := NewNAT()
	n.AddDNAT(DNATRule{Name: "x", Match: MatchUDPPort53, To: ap("10.0.0.1:53")})
	q := Packet{Proto: UDP, Src: ap("192.168.1.2:40000"), Dst: ap("10.0.0.1:53")}
	if _, rewritten := dnat(n, q); rewritten {
		t.Error("rewrote a packet already addressed to the target")
	}
}

func TestDNATFirstRuleWins(t *testing.T) {
	n := NewNAT()
	n.AddDNAT(DNATRule{Name: "a", Match: MatchUDP53To(addr("8.8.8.8")), To: ap("10.0.0.1:53")})
	n.AddDNAT(DNATRule{Name: "b", Match: MatchUDPPort53, To: ap("10.0.0.2:53")})
	q := Packet{Proto: UDP, Src: ap("192.168.1.2:40000"), Dst: ap("8.8.8.8:53")}
	r, ok := dnat(n, q)
	if !ok || r.Dst != ap("10.0.0.1:53") {
		t.Errorf("first rule did not win: %v", r)
	}
	q2 := Packet{Proto: UDP, Src: ap("192.168.1.2:40001"), Dst: ap("1.1.1.1:53")}
	r2, ok := dnat(n, q2)
	if !ok || r2.Dst != ap("10.0.0.2:53") {
		t.Errorf("fallthrough rule did not fire: %v", r2)
	}
}
