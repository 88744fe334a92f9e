// Extensions: a tour of the measurements the paper proposes as future
// work (§6) or mentions in passing (§1, §2), all runnable in the
// simulator:
//
//   - TTL-ladder hop localization of the interceptor
//
//   - DNS-over-TLS interception (strict vs. opportunistic profiles)
//
//   - DNSSEC breakage behind a DNSSEC-oblivious interceptor
//
//   - NXDOMAIN wildcarding (redirection, as distinct from interception)
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"net/netip"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnssec"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/homelab"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/redirect"
	"github.com/dnswatch/dnsloc/internal/ttlprobe"
)

// splitLines is a tiny helper for indented printing.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func main() {
	google := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	cloudflare := netip.AddrPortFrom(publicdns.Lookup(publicdns.Cloudflare).V4[0], 53)

	fmt.Println("== TTL-ladder hop localization (§6) ==")
	for _, s := range []homelab.Scenario{homelab.Clean, homelab.XB6, homelab.ISPMiddlebox, homelab.BeyondISP} {
		lab := homelab.New(s)
		c := &ttlprobe.SimTTLClient{Net: lab.Net, Host: lab.Probe}
		res, err := ttlprobe.Ladder(c, google, publicdns.CanaryDomain, 10)
		if err != nil {
			fmt.Printf("  %-22s ladder failed: %v\n", s, err)
			continue
		}
		fmt.Printf("  %-22s first answer at TTL %d — %s\n", s, res.FirstTTL, ttlprobe.Classify(res, 5))
	}

	fmt.Println()
	fmt.Println("== DNS traceroute (ICMP Time Exceeded) ==")
	for _, s := range []homelab.Scenario{homelab.Clean, homelab.ISPMiddlebox} {
		lab := homelab.New(s)
		c := &ttlprobe.SimTTLClient{Net: lab.Net, Host: lab.Probe}
		tr, err := ttlprobe.Traceroute(c, google, publicdns.CanaryDomain, 10)
		if err != nil {
			fmt.Printf("  %s: %v\n", s, err)
			continue
		}
		fmt.Printf("  scenario %s:\n", s)
		for _, line := range splitLines(tr.String()) {
			fmt.Println("    " + line)
		}
	}

	fmt.Println()
	fmt.Println("== DNS-over-TLS interception (§6) ==")
	// A CPE that terminates every DoT/DoH stream from its LAN behind its
	// own untrusted certificate, plugged into a clean home's wall jack.
	dotLab := homelab.New(homelab.Clean)
	cfg := cpe.NewPlain("dot-terminator", dotLab.Home.LANPrefix4, dotLab.Home.WANv4, dotLab.ISP.ResolverAddrPort())
	cfg.Encrypted = dnsserver.EncTerminate
	terminator := cpe.Build(cfg)
	dotLab.ISP.AttachCPE(dotLab.ISP.Segments()[0], terminator, dotLab.Home)
	dotHost := terminator.AttachHost("dot-probe", 0)
	cf := publicdns.Lookup(publicdns.Cloudflare)
	for _, mode := range []core.TransportMode{core.TransportDoTStrict, core.TransportDoTOpportunistic} {
		c := &core.EncryptedClient{Sim: &core.SimClient{Net: dotLab.Net, Host: dotHost}, Mode: mode}
		resps, err := c.Exchange(cloudflare, cf.Location.Message(1))
		detected := false
		if err == nil {
			txt, ok := resps[0].FirstTXT()
			detected = !ok || !cf.ValidateLocationAnswer(txt)
		}
		fmt.Printf("  %-18s connected=%-5t interception detected=%t\n", mode, err == nil, detected)
	}

	fmt.Println()
	fmt.Println("== DNSSEC behind an interceptor (§1) ==")
	for _, s := range []homelab.Scenario{homelab.Clean, homelab.XB6} {
		lab := homelab.New(s)
		stub := &dnssec.Stub{
			Client:      lab.Client(),
			Resolver:    cloudflare,
			TrustAnchor: lab.Backbone.TrustAnchor,
		}
		res := stub.Resolve(publicdns.CanaryDomain, dnswire.TypeA)
		status := "SECURE"
		if !res.Secure {
			status = fmt.Sprintf("INSECURE (%v)", res.Err)
		}
		fmt.Printf("  %-22s %s\n", s, status)
	}

	fmt.Println()
	fmt.Println("== NXDOMAIN wildcarding (redirection, §2) ==")
	lab := homelab.New(homelab.Clean)
	lab.ISP.Resolver.NXDomainWildcard = netip.MustParseAddr("96.120.0.80")
	det := &redirect.Detector{Client: lab.Client(), Resolver: lab.ISP.ResolverAddrPort()}
	res, err := det.Run()
	if err != nil {
		fmt.Printf("  detection failed: %v\n", err)
		return
	}
	fmt.Printf("  ISP resolver wildcarded=%t ad servers=%v\n", res.Wildcarded, res.AdServers)
	pub := &redirect.Detector{Client: lab.Client(), Resolver: cloudflare}
	if pres, err := pub.Run(); err == nil {
		fmt.Printf("  cloudflare    wildcarded=%t (honest)\n", pres.Wildcarded)
	}
}
