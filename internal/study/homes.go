package study

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// A probe's home — its CPE router with NAT, DNAT and forwarder, and
// the LAN host the detector runs on — lives exactly as long as the
// probe's measurement. Population builds no probe: the template's
// fleet and plan say where every probe's home is, the sweep
// materializes an owned probe's *atlas.Probe when it yields the
// probe's record, binds the home right before measuring the probe and
// releases it once the record is yielded. A world therefore holds one
// live home, not one per owned probe, and it keeps a single
// cpe.Device, its home slot, that every probe's home is rebound into.
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

// homeRef locates an owned probe's home: its plan and index in it, its
// fleet member and its addresses.
type homeRef struct {
	plan  *orgPlan
	idx   int // the probe's position in its org: its ID is plan.startID+idx
	m     atlas.Member
	addrs isp.HomeAddrs
}

// homeOf locates an owned probe's home. The addresses are those the
// serial build's AllocHome handed out, computed from the member's home
// number: the fault plane hashes client addresses into its drop
// decisions, so an address that moved with the shard layout would
// break byte-identical faulted runs.
func (w *World) homeOf(id int) homeRef {
	if !w.Spec.owns(id) || id < firstProbeID || id >= firstProbeID+w.Platform.Len() {
		panic(fmt.Sprintf("study: probe %d has no home in this world", id))
	}
	i := sort.Search(len(w.plans), func(i int) bool { return w.plans[i].startID > id }) - 1
	h := homeRef{plan: &w.plans[i], idx: id - w.plans[i].startID, m: w.Platform.Fleet[id-firstProbeID]}
	// The plan counts segments from 0, the ISP from 1.
	h.addrs = w.ISPs[h.plan.org.ASN].HomeAt(int(h.m.Segment)+1, int(h.m.Home), h.m.HasIPv6)
	return h
}

// segmentFor binds the plan's segment si into the world's segment
// slot, releasing the segment bound there before. A segment's probes
// are contiguous in ID order, so a sweep binds each segment it measures
// once, before any packet has crossed it, as the serial build left it.
func (w *World) segmentFor(plan *orgPlan, si int) *isp.Segment {
	if w.segPlan == plan && w.segIndex == si {
		return &w.seg
	}
	if w.segPlan != nil {
		w.ISPs[w.segPlan.org.ASN].ReleaseSegment(&w.seg)
	}
	w.ISPs[plan.org.ASN].BindSegment(&w.seg, si+1, plan.segSpecs[si].Middlebox(w.Spec.encPolicy()))
	w.segPlan, w.segIndex = plan, si
	return &w.seg
}

// probe materializes an owned probe's platform record from its plan
// and fleet member. Its Host is nil until buildHome binds its home.
func (w *World) probe(id int) *atlas.Probe {
	h := w.homeOf(id)
	org := h.plan.org
	enc := core.TransportDo53
	if h.m.Encrypted {
		enc = w.Spec.Encryption.Transport
	}
	return &atlas.Probe{
		ID:           id,
		Country:      org.Country,
		ASN:          org.ASN,
		Org:          org.Name,
		Region:       h.plan.region,
		HasIPv6:      h.m.HasIPv6,
		WANv4:        h.addrs.WANv4,
		Availability: h.m.Availability,
		Truth:        truthFor(h.plan.seat(h.idx), w.ISPs[org.ASN]),
		EncTransport: enc,
	}
}

// buildHome binds an owned probe's home into the world's home slot,
// attaches it and points probe.Host at its LAN host. The home is a pure
// function of the template's plan and fleet and of world-shared objects
// (forwarder metrics, the regional adversaries), so a home bound again
// after the sweep is the same home the probe was measured from. The
// slot holds one home: binding a second before the first is released
// panics.
func (w *World) buildHome(probe *atlas.Probe) {
	if w.homesLive != 0 {
		panic(fmt.Sprintf("study: home of probe %d bound while another home is live", probe.ID))
	}
	h := w.homeOf(probe.ID)
	network := w.ISPs[h.plan.org.ASN]
	cfg := h.plan.seat(h.idx).CPE(deviceName("cpe-", probe.ID), network, h.addrs,
		w.Spec.encPolicy(), w.adversaryFor(h.plan.region))
	cfg.Metrics = w.fwdMetrics
	if w.home == nil {
		w.home = new(cpe.Device)
	}
	w.home.Rebind(cfg)
	network.AttachCPE(w.segmentFor(h.plan, int(h.m.Segment)), w.home, h.addrs)
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

// releaseHome detaches a live home from its segment, leaving the
// home slot free for the next probe.
func (w *World) releaseHome(probe *atlas.Probe) {
	h := w.homeOf(probe.ID)
	w.ISPs[h.plan.org.ASN].DetachCPE(&w.seg, h.addrs)
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
