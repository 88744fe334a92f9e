package study

import (
	"fmt"
	"strconv"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// A probe's home — its CPE router with NAT, DNAT and forwarder, and
// the LAN host the detector runs on — lives exactly as long as the
// probe's measurement. Population only registers a metadata stub and,
// for an owned probe, a pendingHome; the sweep binds the home right
// before measuring the probe and releases it once the record is
// yielded. A world therefore holds one live home, not one per owned
// probe, and it keeps a single cpe.Device, its home slot, that every
// probe's home is rebound into.
//
// Rebinding is safe because a home carries no state between
// measurements that the output depends on: Host.Exchange drains the
// event queue before it returns, so no packet of a finished probe is
// ever in flight; cpe.Device.Rebind resets the router, NAT, forwarder
// and LAN host to the state a new one starts in (tables emptied, port
// counters restarted), so a rebound home is the home cpe.Build would
// make; and nothing in Rebind, AttachCPE or AttachHost draws from an
// RNG. Device names stay per probe (cpe-<id>, probe-<id>) because the
// fault plane keys its per-device profiles and flow seeds by name.

// pendingHome is what an owned probe's home is bound from: its plan
// entry, the segment it attaches to, and the addresses population
// allocated for it.
type pendingHome struct {
	plan  *orgPlan
	idx   int // index into plan.probes; the probe ID is plan.startID+idx
	seg   *isp.Segment
	addrs isp.HomeAddrs
}

// pendingFor returns an owned probe's pending home. Owned probes are
// registered in ID order, which is shard-rank order, so the entry's
// index is the probe's shard rank.
func (w *World) pendingFor(id int) *pendingHome {
	i := w.Spec.shardRank(id)
	if i < 0 || i >= len(w.homes) || w.homes[i].plan.startID+w.homes[i].idx != id {
		panic(fmt.Sprintf("study: probe %d has no pending home in this world", id))
	}
	return &w.homes[i]
}

// buildHome binds an owned probe's home into the world's home slot,
// attaches it and points probe.Host at its LAN host. The home is a pure
// function of the pending entry and world-shared objects (forwarder
// metrics, the regional adversaries), so a home bound again after the
// sweep is the same home the probe was measured from. The slot holds
// one home: binding a second before the first is released panics.
func (w *World) buildHome(probe *atlas.Probe) {
	if w.homesLive != 0 {
		panic(fmt.Sprintf("study: home of probe %d bound while another home is live", probe.ID))
	}
	ph := w.pendingFor(probe.ID)
	plan := ph.plan
	network := w.ISPs[plan.org.ASN]
	cfg := plan.probes[ph.idx].seat.CPE(deviceName("cpe-", probe.ID), network, ph.addrs,
		w.Spec.encPolicy(), w.adversaryFor(plan.region))
	cfg.Metrics = w.fwdMetrics
	if w.home == nil {
		w.home = new(cpe.Device)
	}
	w.home.Rebind(cfg)
	network.AttachCPE(ph.seg, w.home, ph.addrs)
	probe.Host = w.home.AttachHost(deviceName("probe-", probe.ID), 0)
	w.homesLive++
	w.studyMetrics.noteHomeBuilt(w.homesLive)
}

// deviceName is prefix followed by the probe ID in decimal, built with
// the one allocation of the final string.
func deviceName(prefix string, id int) string {
	var b [32]byte
	return string(strconv.AppendInt(append(b[:0], prefix...), int64(id), 10))
}

// releaseHome detaches a live home from its segment, leaving the probe
// a stub again and the home slot free for the next probe.
func (w *World) releaseHome(probe *atlas.Probe) {
	ph := w.pendingFor(probe.ID)
	w.ISPs[ph.plan.org.ASN].DetachCPE(ph.seg, ph.addrs)
	probe.Host = nil
	w.homesLive--
}

// WithHome runs fn from the record's probe after the sweep: the probe's
// home is bound into the record's world's home slot, fn gets its LAN
// host (on the event loop rec.Net), and the home is released again
// when fn returns. Follow-up measurements such as the TTL extension go
// through it, because a record never pins its home. Calls on records
// of one world must not run concurrently, nor during that world's
// sweep. It reports false for a record that no sweep produced, which
// has no world to bind the home in.
func (rec *ProbeRecord) WithHome(fn func(host *netsim.Host)) bool {
	w := rec.world
	if w == nil {
		return false
	}
	w.buildHome(rec.Probe)
	defer w.releaseHome(rec.Probe)
	fn(rec.Probe.Host)
	return true
}
