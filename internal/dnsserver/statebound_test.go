package dnsserver_test

import (
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/study"
)

// TestNoJobOutlivesItsDrain: after a paper-scale run (a fifth of it in
// -short mode), no ISP or public resolver holds a pending job, and no
// upstream port is left bound on an ISP resolver router. A job whose
// upstream query or answer was lost is dropped once the network goes
// idle instead of staying until its port number wraps.
func TestNoJobOutlivesItsDrain(t *testing.T) {
	spec := study.PaperSpec()
	if testing.Short() {
		spec = spec.Scale(0.2)
	}
	w := study.BuildWorld(spec)
	study.Run(w)
	resolvers := 0
	check := func(what string, r *dnsserver.RecursiveResolver) {
		resolvers++
		if n := dnsserver.PendingJobs(r); n != 0 {
			t.Errorf("%s holds %d pending jobs", what, n)
		}
	}
	for asn, n := range w.ISPs {
		check("ISP resolver", n.Resolver)
		check("ISP refusing resolver", n.Refusing)
		for port := uint16(10000); port < 20000; port++ {
			for _, a := range n.ResolverRtr.Addrs() {
				if _, ok := n.ResolverRtr.BoundService(a, port); ok {
					t.Errorf("as%d: upstream port %d still bound on %s", asn, port, a)
				}
			}
		}
	}
	for _, sites := range w.Backbone.Resolvers {
		for _, r := range sites {
			check("public resolver", r)
		}
	}
	if resolvers == 0 {
		t.Fatal("the world has no resolvers")
	}
}
