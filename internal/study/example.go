package study

import (
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/backbone"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/isp"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// ExampleRow is one probe's line across Tables 2 and 3 of the paper:
// the raw strings the technique works from.
type ExampleRow struct {
	ProbeID int
	// Table 2: responses to IPv4 location queries.
	LocCloudflare string
	LocGoogle     string
	// Table 3: responses to IPv4 version.bind queries ("-" = not
	// queried, because the probe was not intercepted).
	VBCloudflare string
	VBGoogle     string
	VBCPE        string
	// The verdict the technique reaches.
	Verdict core.Verdict
}

// ExampleScenario rebuilds §3.4's worked example: three probes — one
// clean (1053), one intercepted inside its ISP by a middlebox whose
// resolver does not implement version.bind (11992), and one intercepted
// by its own CPE running unbound (21823) — and runs the technique from
// each.
func ExampleScenario() []ExampleRow {
	net := netsim.NewNetwork()
	bb := backbone.Build(net)
	platform := atlas.NewPlatform(net, 1)

	// Probe 11992's ISP: middlebox interception to a resolver that
	// answers location queries with NOTIMP-shaped identities. 11992's
	// CPE has port 53 open and answers debugging queries with NXDOMAIN —
	// Table 3's mixed NOTIMP/NXDOMAIN row.
	seat11992 := &isp.Seat{Loc: isp.LocISP, Persona: &dnsserver.PersonaNXDomain, WANPort53Open: true}
	isp1 := bb.AttachISP(isp.Config{
		ASN: 12389, Name: "Rostelecom", Country: "RU",
		Region:          publicdns.RegionAS,
		PrefixV4:        netip.MustParsePrefix("62.183.0.0/16"),
		ResolverPersona: dnsserver.PersonaSilent,
	})
	seg1 := isp1.AddSegment(seat11992.Middlebox(dnsserver.EncPass))

	// Probes 1053 and 21823 share a clean ISP.
	isp2 := bb.AttachISP(isp.Config{
		ASN: 8708, Name: "RCS & RDS", Country: "RO",
		Region:          publicdns.RegionEU,
		PrefixV4:        netip.MustParsePrefix("185.194.0.0/16"),
		ResolverPersona: dnsserver.PersonaSilent,
	})
	seg2 := isp2.AddSegment(nil)

	build := func(n *isp.Network, seg *isp.Segment, id int, s *isp.Seat) *atlas.Probe {
		home := n.AllocHome(seg, false)
		d := cpe.Build(s.CPE("cpe", n, home, dnsserver.EncPass, nil))
		n.AttachCPE(seg, d, home)
		p := &atlas.Probe{
			ID: id, WANv4: home.WANv4,
			Host:         d.AttachHost("probe", 0),
			Availability: atlas.Full,
		}
		platform.Add(p)
		return p
	}

	p1053 := build(isp2, seg2, 1053, nil)
	p11992 := build(isp1, seg1, 11992, seat11992)
	// 21823's CPE intercepts everything with an unbound forwarder whose
	// identity string is the odd hostname of Table 2.
	p21823 := build(isp2, seg2, 21823, &isp.Seat{Loc: isp.LocCPE, Persona: &dnsserver.ChaosPersona{
		Version:  "unbound 1.9.0",
		Identity: "routing.v2.pw",
	}})

	var rows []ExampleRow
	for _, p := range []*atlas.Probe{p1053, p11992, p21823} {
		det := platform.Detector(p)
		det.QueryV6 = false
		report := det.Run()
		rows = append(rows, exampleRow(p.ID, report))
	}
	return rows
}

// exampleRow condenses a report into the table cells.
func exampleRow(id int, r *core.Report) ExampleRow {
	row := ExampleRow{ProbeID: id, Verdict: r.Verdict,
		VBCloudflare: "-", VBGoogle: "-", VBCPE: "-"}
	for _, p := range r.Location {
		if p.Server.Port() != 53 {
			continue
		}
		switch {
		case p.Resolver == publicdns.Cloudflare && p.Server.Addr() == publicdns.Lookup(publicdns.Cloudflare).V4[0]:
			row.LocCloudflare = p.String()
		case p.Resolver == publicdns.Google && p.Server.Addr() == publicdns.Lookup(publicdns.Google).V4[0]:
			row.LocGoogle = p.String()
		}
	}
	if r.CPEVersionBind.Server.IsValid() {
		row.VBCPE = r.CPEVersionBind.String()
	}
	for _, p := range r.ResolverVersionBind {
		switch p.Resolver {
		case publicdns.Cloudflare:
			row.VBCloudflare = p.String()
		case publicdns.Google:
			row.VBGoogle = p.String()
		}
	}
	return row
}
