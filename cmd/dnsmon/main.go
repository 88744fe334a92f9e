// Command dnsmon monitors a network for DNS interception: it reruns the
// localization technique on an interval and reports verdict changes —
// the continuous monitoring the paper's conclusion motivates ("...can
// be more closely monitored by using our work"), catching events like a
// CPE firmware update that silently enables XDNS-style redirection.
//
//	dnsmon -real -cpe-ip 203.0.113.7 -interval 1h
//	dnsmon -sim xb6 -count 3 -interval 0      # offline demo: 3 rounds
//
// Output is one line per round; verdict transitions are marked. Exit
// code 1 if any round observed interception.
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"time"

	dnsloc "github.com/dnswatch/dnsloc"
)

func main() {
	var (
		real     = flag.Bool("real", false, "monitor the real network instead of a simulation")
		sim      = flag.String("sim", "clean", "simulation scenario")
		cpeIP    = flag.String("cpe-ip", "", "the CPE's public IPv4 address (real mode)")
		interval = flag.Duration("interval", time.Hour, "time between rounds (0 = back-to-back)")
		count    = flag.Int("count", 0, "number of rounds (0 = forever)")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-query timeout (real mode)")
	)
	flag.Parse()

	var det *dnsloc.Detector
	if *real {
		det = &dnsloc.Detector{
			Client:   dnsloc.NewUDPClient(*timeout),
			QueryV6:  true,
			Parallel: true,
			Retries:  1,
		}
		if *cpeIP != "" {
			addr, err := netip.ParseAddr(*cpeIP)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsmon: bad -cpe-ip: %v\n", err)
				os.Exit(2)
			}
			det.CPEPublicV4 = addr
		}
	} else {
		if !slices.Contains(dnsloc.AllScenarios, dnsloc.Scenario(*sim)) {
			fmt.Fprintf(os.Stderr, "dnsmon: unknown -sim scenario %q\n", *sim)
			os.Exit(2)
		}
		lab := dnsloc.NewSimHome(dnsloc.Scenario(*sim))
		det = lab.Detector()
	}

	var last *dnsloc.Report
	sawInterception := false
	for round := 1; *count == 0 || round <= *count; round++ {
		report := det.Run()
		stamp := time.Now().Format(time.RFC3339)
		extra := ""
		if report.CPEString != "" {
			extra = fmt.Sprintf("  fingerprint=%q", report.CPEString)
		}
		fmt.Printf("%s  round=%d  verdict=%q  intercepted=%v%s\n",
			stamp, round, report.Verdict, report.InterceptedSet(), extra)
		for _, change := range report.Diff(last) {
			fmt.Printf("%s  round=%d  ** CHANGE: %s\n", stamp, round, change)
		}
		last = report
		if report.Intercepted() {
			sawInterception = true
		}
		if *count != 0 && round == *count {
			break
		}
		if *interval > 0 {
			time.Sleep(*interval)
		}
	}
	if sawInterception {
		os.Exit(1)
	}
}
