package study

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// TestRecycledHomeMatchesFresh is the home slot's differential: every
// probe a sweep measures from the world's rebound slot is measured
// again, in a second world built from the same spec, from a home
// cpe.Build makes new. The two sweeps issue the same packets in the
// same order, so any state a rebind fails to reset — a cached answer,
// a conntrack entry, a port counter, a stale route — shows up as a
// differing record.
func TestRecycledHomeMatchesFresh(t *testing.T) {
	faulted := PaperSpec().Scale(0.02)
	fp := netsim.PresetFault(0.5, faulted.Seed+9000)
	faulted.Fault = &fp
	faulted.Retry = &core.RetryPolicy{MaxAttempts: 3}

	hardened := PaperSpec().Scale(0.02)
	hardened.Adversary = 2
	hardened.CertCheck = true
	hardened.DriftRounds = 1
	hardened.Encryption = &Encryption{
		Adoption:  0.5,
		Transport: core.TransportDoTOpportunistic,
		Policy:    dnsserver.EncTerminate,
	}

	// Blocking CPEs add an input filter per bind, which a rebind must
	// drop before the next, clean home.
	blocking := PaperSpec().Scale(0.02)
	blocking.Encryption = &Encryption{
		Adoption:  0.5,
		Transport: core.TransportDoTOpportunistic,
		Policy:    dnsserver.EncBlock,
	}

	for _, c := range []struct {
		name string
		spec Spec
	}{{"faulted", faulted}, {"adversary-L2-terminate", hardened}, {"block", blocking}} {
		t.Run(c.name, func(t *testing.T) {
			slotted := BuildWorld(c.spec)
			var slots []any
			var records []*ProbeRecord
			streamRecords(slotted, 0, func(rec *ProbeRecord) bool {
				if rec.Report != nil || rec.Err != "" {
					records = append(records, rec)
					slots = append(slots, slotted.home)
				}
				return true
			})
			if len(records) == 0 {
				t.Fatal("the sweep measured no probe")
			}
			for i := range slots {
				if slots[i] != slots[0] {
					t.Fatalf("record %d was measured from a second device: the slot was not reused", i)
				}
			}

			fresh := BuildWorld(c.spec)
			byID := map[int]*atlas.Probe{}
			for _, p := range fresh.Platform.Probes() {
				byID[p.ID] = p
			}
			for _, rec := range records {
				probe := byID[rec.Probe.ID]
				fresh.home = nil // cpe.Build's path: a new Device
				fresh.buildHome(probe)
				report, errMsg := measure(fresh, probe)
				fresh.releaseHome(probe)
				if errMsg != rec.Err {
					t.Fatalf("probe %d: fresh home err %q, slot err %q", probe.ID, errMsg, rec.Err)
				}
				if !reflect.DeepEqual(report, rec.Report) {
					t.Fatalf("probe %d: the slot's record differs from a fresh home's\nslot:  %s\nfresh: %s",
						probe.ID, rec.Report, report)
				}
			}
		})
	}
}

// TestRecycledHomeForgetsForwarderCache shows a rebind empties the CPE
// forwarder's answer cache: an answer probe N's forwarder cached is not
// served when probe N+1 asks the same question from the same slot.
func TestRecycledHomeForgetsForwarderCache(t *testing.T) {
	w := BuildWorld(PaperSpec().Scale(0.01))
	probes := w.Platform.Probes()
	query := func(probe *atlas.Probe, id uint16) {
		t.Helper()
		client := &core.SimClient{Net: w.Net, Host: probe.Host}
		to := netip.AddrPortFrom(w.home.Config.LANAddr, 53)
		q := dnswire.NewQuery(id, publicdns.CanaryDomain, dnswire.TypeA, dnswire.ClassINET)
		if _, err := client.Exchange(to, q); err != nil {
			t.Fatalf("probe %d: %v", probe.ID, err)
		}
	}
	hits := w.fwdMetrics.CacheHits

	w.buildHome(probes[0])
	fwd := w.home.Forwarder
	query(probes[0], 1)
	query(probes[0], 2)
	if hits.Value() != 1 {
		t.Fatalf("probe %d: %d forwarder cache hits on a repeated question, want 1", probes[0].ID, hits.Value())
	}
	w.releaseHome(probes[0])

	w.buildHome(probes[1])
	if w.home.Forwarder != fwd {
		t.Fatal("probe N+1's home has a new forwarder: the slot was not reused")
	}
	query(probes[1], 3)
	if hits.Value() != 1 {
		t.Errorf("probe %d was answered from probe %d's forwarder cache", probes[1].ID, probes[0].ID)
	}
	w.releaseHome(probes[1])
}

// homeRebindAllocBudget is the allocation budget of binding and
// releasing one home in a warm slot. The two per-probe device names
// take two; the rest covers the target lists of selective seats.
const homeRebindAllocBudget = 4

// TestHomeRebindAllocBudget pins the home slot's cost: once each table
// has grown to its working size, binding a probe's home (CPE router,
// NAT, DNAT rules, forwarder, LAN host, ISP routes) and releasing it
// allocates no more than the device names, averaged over every owned
// probe of a scale-0.1 world.
func TestHomeRebindAllocBudget(t *testing.T) {
	w := BuildWorld(PaperSpec().Scale(0.1))
	probes := w.Platform.Probes()
	// AllocsPerRun's warm-up call binds every home once first.
	allocs := testing.AllocsPerRun(1, func() {
		for _, p := range probes {
			w.buildHome(p)
			w.releaseHome(p)
		}
	}) / float64(len(probes))
	t.Logf("%.2f allocs per rebind+release over %d probes", allocs, len(probes))
	if allocs > homeRebindAllocBudget {
		t.Errorf("rebind+release allocates %.2f/probe, budget %d", allocs, homeRebindAllocBudget)
	}
}
