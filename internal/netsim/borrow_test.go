package netsim

import (
	"net/netip"
	"reflect"
	"testing"
)

// TestEventHasNoPointers walks the event record's type: a field that
// holds a pointer would bring GC write barriers back into every push
// and popBatch, and make the calendar buckets pin delivered packets.
// It walks the conntrack key's type too: a pointer there would make
// every conntrack probe call the type's hash function again.
func TestEventHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: it must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("event", reflect.TypeOf(event{}))
	walk("flowKey", reflect.TypeOf(flowKey{}))
}

// sinkDev records a copy of every packet it receives.
type sinkDev struct {
	name string
	got  []Packet
}

func (d *sinkDev) DeviceName() string { return d.name }

func (d *sinkDev) Receive(ctx *Ctx, pkt *Packet) { d.got = append(d.got, *pkt) }

// TestForwardAllocBudget pins a forwarded packet's steady-state cost at
// zero allocations: injected at a CPE that intercepts it (DNAT) and
// masquerades it (SNAT), then routed across an access router to the
// interceptor's resolver, on a flow whose NAT entries already exist.
func TestForwardAllocBudget(t *testing.T) {
	n := NewNetwork()
	resolver := &sinkDev{name: "resolver"}
	access := NewRouter("access")
	access.AddDefaultRoute(resolver)
	cpe := NewRouter("cpe", addr("192.168.1.1"), addr("96.120.0.10"))
	cpe.NAT = NewNAT()
	cpe.NAT.MasqueradeV4 = addr("96.120.0.10")
	cpe.NAT.LANPrefixes = []netip.Prefix{pfx("192.168.1.0/24")}
	cpe.NAT.AddDNAT(DNATRule{Name: "intercept", Match: MatchUDPPort53, To: ap("75.75.75.75:53")})
	cpe.AddDefaultRoute(access)
	pkt := Packet{
		Src: ap("192.168.1.10:49152"), Dst: ap("8.8.8.8:53"), Proto: UDP,
		TTL: DefaultTTL, Payload: []byte("\x12\x34\x01\x00query"),
	}
	forward := func() {
		n.Inject(cpe, pkt)
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		resolver.got = resolver.got[:0]
	}
	// Warm-up creates the NAT entries and the slots, and cycles the
	// virtual clock once around the calendar ring so every bucket has
	// its storage.
	for i := 0; i < calBuckets; i++ {
		forward()
	}
	if allocs := testing.AllocsPerRun(100, forward); allocs != 0 {
		t.Errorf("forwarding through DNAT and SNAT allocates %.1f/op, budget 0", allocs)
	}
	n.Inject(cpe, pkt)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(resolver.got) != 1 {
		t.Fatalf("resolver got %d packets, want 1", len(resolver.got))
	}
	got := resolver.got[0]
	if got.Dst != ap("75.75.75.75:53") || got.Src.Addr() != addr("96.120.0.10") || got.TTL != DefaultTTL-2 {
		t.Errorf("forwarded packet = %v, want DNATed, masqueraded and two hops down", got)
	}
}

// TestReplicatedCopyIsolatedFromSNAT: a Replicate DNAT routes a copy of
// the original first, and that copy is masqueraded in place on its way
// out of the same router. The diverted packet, delivered locally right
// after, must still carry the client's own source, the rewritten
// destination and its unspent TTL.
func TestReplicatedCopyIsolatedFromSNAT(t *testing.T) {
	n := NewNetwork()
	upstream := &sinkDev{name: "upstream"}
	cpe := NewRouter("cpe", addr("192.168.1.1"), addr("96.120.0.10"))
	cpe.NAT = NewNAT()
	cpe.NAT.MasqueradeV4 = addr("96.120.0.10")
	cpe.NAT.LANPrefixes = []netip.Prefix{pfx("192.168.1.0/24")}
	cpe.NAT.AddDNAT(DNATRule{Name: "replicate", Match: MatchUDPPort53, To: ap("192.168.1.1:53"), Replicate: true})
	cpe.AddDefaultRoute(upstream)
	var served []Packet
	cpe.Bind(53, ServiceFunc(func(sc *ServiceCtx, pkt *Packet) { served = append(served, *pkt) }))

	src := ap("192.168.1.10:49152")
	n.Inject(cpe, Packet{Src: src, Dst: ap("8.8.8.8:53"), Proto: UDP, TTL: DefaultTTL, Payload: []byte("q")})
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(upstream.got) != 1 || len(served) != 1 {
		t.Fatalf("upstream got %d, service got %d; want one copy each", len(upstream.got), len(served))
	}
	if up := upstream.got[0]; up.Src.Addr() != addr("96.120.0.10") || up.Dst != ap("8.8.8.8:53") ||
		up.TTL != DefaultTTL-1 || up.OrigDst.IsValid() {
		t.Errorf("replicated original = %+v, want masqueraded to 8.8.8.8:53 with TTL %d", up, DefaultTTL-1)
	}
	if d := served[0]; d.Src != src || d.Dst != ap("192.168.1.1:53") || d.TTL != DefaultTTL ||
		d.OrigDst != ap("8.8.8.8:53") {
		t.Errorf("diverted copy = %+v, want %s -> 192.168.1.1:53 with TTL %d and OrigDst 8.8.8.8:53", d, src, DefaultTTL)
	}
}

// TestEventBudgetReleasesSlots: a Run cut short by the event budget
// frees the slots of the batch it abandons, so the only occupied slots
// are those of events still queued, and freed slots pin nothing.
func TestEventBudgetReleasesSlots(t *testing.T) {
	n := NewNetwork()
	a, b := NewRouter("a"), NewRouter("b")
	a.AddDefaultRoute(b)
	b.AddDefaultRoute(a)
	n.MaxEvents = 10
	for i := 0; i < 3; i++ {
		n.Inject(a, Packet{Src: ap("10.0.0.2:5000"), Dst: ap("8.8.8.8:53"), Proto: UDP, TTL: 255, Payload: []byte("q")})
	}
	if _, err := n.Run(); err == nil {
		t.Fatal("forwarding loop did not exhaust the budget")
	}
	if used := len(n.slots) - len(n.freeSlots); used != n.queue.Len() {
		t.Errorf("%d slots occupied, %d events queued", used, n.queue.Len())
	}
	for _, k := range n.freeSlots {
		if s := n.slots[k]; s.dev != nil || s.pkt.Payload != nil {
			t.Errorf("free slot %d still pins its device or payload", k)
		}
	}
}
