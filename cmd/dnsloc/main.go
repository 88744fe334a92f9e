// Command dnsloc runs the interception-localization technique, either
// against the real network this machine sits on, or inside a simulated
// home for demonstration:
//
//	dnsloc -real -cpe-ip 203.0.113.7      # probe the live network
//	dnsloc -sim xb6                       # simulate an XB6 home
//	dnsloc -sim clean -v6=false
//	dnsloc -list                          # list simulation scenarios
//
// The real mode issues exactly the queries the paper describes: location
// queries to Cloudflare/Google/Quad9/OpenDNS, version.bind to the CPE's
// public address, and bogon queries — no root privileges required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"strings"
	"time"

	dnsloc "github.com/dnswatch/dnsloc"
)

func main() {
	var (
		real    = flag.Bool("real", false, "probe the real network instead of a simulation")
		sim     = flag.String("sim", "clean", "simulation scenario (see -list)")
		list    = flag.Bool("list", false, "list simulation scenarios and exit")
		cpeIP   = flag.String("cpe-ip", "", "the CPE's public IPv4 address (real mode; enables the CPE test)")
		v6      = flag.Bool("v6", true, "also test the resolvers' IPv6 addresses")
		timeout = flag.Duration("timeout", 3*time.Second, "per-query timeout (real mode)")
		only    = flag.String("resolvers", "", "comma-separated subset: cloudflare,google,quad9,opendns")
		explain = flag.Bool("explain", false, "narrate the decision path, not just the evidence")
		doTrace = flag.Bool("trace", false, "also run a DNS traceroute to Google (simulation only)")
		asJSON  = flag.Bool("json", false, "emit the report as JSON")
		retries = flag.Int("retries", 1, "per-query retries on timeout")
	)
	flag.Parse()

	if *list {
		for _, s := range dnsloc.AllScenarios {
			fmt.Printf("%-24s -> %s\n", s, dnsloc.ExpectedVerdict(s))
		}
		return
	}

	var det *dnsloc.Detector
	if *real {
		det = &dnsloc.Detector{
			Client:  dnsloc.NewUDPClient(*timeout),
			QueryV6: *v6,
		}
		if *cpeIP != "" {
			addr, err := netip.ParseAddr(*cpeIP)
			if err != nil || !addr.Is4() {
				fmt.Fprintf(os.Stderr, "dnsloc: -cpe-ip must be an IPv4 address: %v\n", err)
				os.Exit(2)
			}
			det.CPEPublicV4 = addr
		} else {
			fmt.Fprintln(os.Stderr, "dnsloc: no -cpe-ip given; the CPE test (step 2) will be skipped")
		}
	} else {
		if !slices.Contains(dnsloc.AllScenarios, dnsloc.Scenario(*sim)) {
			fmt.Fprintf(os.Stderr, "dnsloc: unknown -sim scenario %q\n", *sim)
			os.Exit(2)
		}
		lab := dnsloc.NewSimHome(dnsloc.Scenario(*sim))
		det = lab.Detector()
		det.QueryV6 = *v6
		fmt.Printf("simulated home scenario: %s\n\n", *sim)
		if *doTrace {
			tr, err := lab.Traceroute()
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsloc: traceroute: %v\n", err)
			} else {
				fmt.Println(tr)
			}
		}
	}
	if *real && *doTrace {
		fmt.Fprintln(os.Stderr, "dnsloc: -trace needs TTL control (root); available in simulation only")
	}

	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			det.Resolvers = append(det.Resolvers, dnsloc.ResolverID(strings.TrimSpace(name)))
		}
	}

	det.Retries = *retries
	report := det.Run()
	switch {
	case *asJSON:
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsloc: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(blob))
	case *explain:
		fmt.Print(report.Explain())
	default:
		fmt.Print(report)
	}

	switch report.Verdict {
	case dnsloc.VerdictNotIntercepted:
		os.Exit(0)
	default:
		os.Exit(1) // interception detected
	}
}
