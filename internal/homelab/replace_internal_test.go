package homelab

// ReplaceCPE is used only by this package's tests.

import (
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/isp"
)

// ReplaceCPE swaps the home's router for a well-behaved one, keeping
// the same addressing and ISP — the remediation §7 describes:
// "replacing these CPE devices sometimes suffices to prevent DNS
// interception." Re-attaching to the segment replaces the old
// next-hops, exactly like plugging a new router into the same wall
// jack, and a new probe host sits behind the new router.
func (l *Lab) ReplaceCPE() {
	var clean isp.Seat
	l.attach(clean.CPE("replacement-cpe", l.ISP, l.Home, dnsserver.EncPass, nil), "probe-after-swap")
}
