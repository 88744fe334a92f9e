package publicdns

import (
	"net/netip"
	"regexp"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnswire"
)

func TestSiteFor(t *testing.T) {
	for _, id := range []ID{Cloudflare, Google, Quad9, OpenDNS} {
		for i, r := range Regions {
			s := SiteFor(id, r)
			if s.Operator != id || s.Region != r || s.Index != i {
				t.Errorf("SiteFor(%v, %v) = %+v", id, r, s)
			}
			if s.City == "" {
				t.Errorf("SiteFor(%v, %v) has no city", id, r)
			}
		}
	}
	// An unknown region resolves to the EU site rather than panicking.
	if s := SiteFor(Cloudflare, Region("atlantis")); s.Region != RegionEU {
		t.Errorf("unknown region resolved to %v, want %v", s.Region, RegionEU)
	}
}

func TestGenuineChaos(t *testing.T) {
	if _, _, ok := GenuineChaos(netip.MustParseAddr("198.51.100.1"), "id.server", RegionNA); ok {
		t.Error("unknown target claimed a genuine answer")
	}

	cf := Lookup(Cloudflare).V4[0]
	txt, _, ok := GenuineChaos(cf, "id.server", RegionNA)
	if !ok || txt != SiteFor(Cloudflare, RegionNA).persona().Identity {
		t.Errorf("cloudflare id.server = (%q, %v), want the NA site's identity", txt, ok)
	}

	// Google answers every CHAOS debugging query NOTIMP: empty TXT, the
	// error rcode, still known.
	gg := Lookup(Google).V4[0]
	txt, rc, ok := GenuineChaos(gg, "version.bind", RegionNA)
	if !ok || txt != "" || rc != dnswire.RCodeNotImplemented {
		t.Errorf("google version.bind = (%q, %v, %v), want NOTIMP error", txt, rc, ok)
	}

	// A debugging name nobody implements is NOTIMP for everyone.
	txt, rc, ok = GenuineChaos(cf, "hostname.bind", RegionEU)
	if !ok {
		t.Error("known target, unknown debug name: not ok")
	}
	if txt != "" && rc != dnswire.RCodeNotImplemented {
		t.Errorf("hostname.bind = (%q, %v)", txt, rc)
	}
}

// iataRe and quad9Re (validate_test.go) are the answer formats the
// validator checks — forgeries exist to defeat exactly those, so they
// are the right bar. q9verRe is the version string's group.
var q9verRe = regexp.MustCompile(`^Q9-P-7\.\d$`)

// TestForgeChaos: forgeries must be format-valid for the operator they
// imitate (they exist to defeat shape validation), and must be declined
// exactly where the genuine answer is an error — forging a string the
// real target would never say is self-defeating.
func TestForgeChaos(t *testing.T) {
	cf := Lookup(Cloudflare).V4[0]
	q9 := Lookup(Quad9).V4[0]
	gg := Lookup(Google).V4[0]

	for draw := uint64(0); draw < 64; draw += 7 {
		if s, ok := ForgeChaos(cf, "id.server", draw); !ok || !iataRe.MatchString(s) {
			t.Errorf("cloudflare forgery (%q, %v) is not an IATA code", s, ok)
		}
		if s, ok := ForgeChaos(q9, "id.server", draw); !ok || !quad9Re.MatchString(s) {
			t.Errorf("quad9 identity forgery (%q, %v) is not a PCH backend name", s, ok)
		}
		if s, ok := ForgeChaos(q9, "version.bind", draw); !ok || !q9verRe.MatchString(s) {
			t.Errorf("quad9 version forgery (%q, %v) does not group as Q9-*", s, ok)
		}
	}

	declined := []struct {
		name   string
		target netip.Addr
		query  dnswire.Name
	}{
		{"google identity (genuinely NOTIMP)", gg, "id.server"},
		{"cloudflare version (genuinely NOTIMP)", cf, "version.bind"},
		{"unknown target", netip.MustParseAddr("198.51.100.1"), "id.server"},
		{"non-debug name", q9, "example.com"},
	}
	for _, tc := range declined {
		if s, ok := ForgeChaos(tc.target, tc.query, 1); ok {
			t.Errorf("%s: forged %q, want declined", tc.name, s)
		}
	}

	// Distinct draws reach distinct forgeries — what the drift signal
	// feeds on.
	a, _ := ForgeChaos(cf, "id.server", 1)
	b, _ := ForgeChaos(cf, "id.server", 1<<40)
	if a == b {
		t.Errorf("draws 1 and 1<<40 forged the same identity %q", a)
	}
}

func TestForgeIATA(t *testing.T) {
	seen := map[string]bool{}
	for draw := uint64(0); draw < 26*26*26; draw += 131 {
		s := forgeIATA(draw)
		if !iataRe.MatchString(s) {
			t.Fatalf("forgeIATA(%d) = %q", draw, s)
		}
		seen[s] = true
	}
	if len(seen) < 50 {
		t.Errorf("forgeIATA covered only %d codes over the sweep", len(seen))
	}
	if forgeIATA(7) != forgeIATA(7) {
		t.Error("forgeIATA is not deterministic")
	}
}

// TestIdentityOverTLS: the authenticated channel exposes an identity
// exactly for the operators whose persona answers id.server — and that
// identity always matches what the honest UDP path serves, which is the
// invariant the certificate-consistency oracle rests on.
func TestIdentityOverTLS(t *testing.T) {
	for _, r := range Regions {
		for _, id := range []ID{Cloudflare, Quad9} {
			got, ok := IdentityOverTLS(id, r)
			if !ok || got == "" {
				t.Errorf("IdentityOverTLS(%v, %v) = (%q, %v), want an identity", id, r, got, ok)
			}
			if want := SiteFor(id, r).persona().Identity; got != want {
				t.Errorf("IdentityOverTLS(%v, %v) = %q, UDP persona says %q", id, r, got, want)
			}
		}
		for _, id := range []ID{Google, OpenDNS} {
			if got, ok := IdentityOverTLS(id, r); ok {
				t.Errorf("IdentityOverTLS(%v, %v) = %q, want none", id, r, got)
			}
		}
	}
}
