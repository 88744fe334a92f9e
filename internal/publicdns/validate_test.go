package publicdns

import (
	"net/netip"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"github.com/dnswatch/dnsloc/internal/dnswire"
)

// The formats of Table 1 as regular expressions. ValidateLocationAnswer
// checks them byte by byte; these are its oracle, and the bar the
// adversary's forgeries must clear.
var (
	iataRe    = regexp.MustCompile(`^[A-Z]{3}$`)
	quad9Re   = regexp.MustCompile(`^res\d+\.[a-z]{3}\.rrdns\.pch\.net$`)
	openDNSRe = regexp.MustCompile(`^server m\d+\.[a-z]{3}$`)
)

// validateByRegexp is ValidateLocationAnswer written with the regexps.
func validateByRegexp(c *Config, answer string) bool {
	answer = strings.TrimSpace(answer)
	switch c.ID {
	case Cloudflare:
		return iataRe.MatchString(answer)
	case Google:
		a, err := netip.ParseAddr(answer)
		return err == nil && c.InEgress(a)
	case Quad9:
		return quad9Re.MatchString(answer)
	case OpenDNS:
		return openDNSRe.MatchString(answer)
	}
	return false
}

// FuzzLocationAnswer is differential: for every string and every
// operator, the byte checks agree with the regexps. The seeds are every
// site's standard answers, the adversary's forgeries, and near misses.
func FuzzLocationAnswer(f *testing.F) {
	for s := range standardAnswers {
		f.Add(s)
		f.Add(" " + s + "\n")
	}
	for _, target := range []netip.Addr{Lookup(Cloudflare).V4[0], Lookup(Quad9).V4[0]} {
		for draw := uint64(0); draw < 1<<20; draw += 99991 {
			for _, name := range []dnswire.Name{"id.server", "version.bind"} {
				if s, ok := ForgeChaos(target, name, draw); ok {
					f.Add(s)
				}
			}
		}
	}
	for _, s := range []string{
		"", "IA", "IADX", "iAD", "res.iad.rrdns.pch.net", "res1.iad.rrdns.pch.net.",
		"res1.IAD.rrdns.pch.net", "res12.ia.rrdns.pch.net", "server m.iad", "server m1.iad ",
		"server m1.iadx", "server  m1.iad", "res１.iad.rrdns.pch.net", " IAD ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, answer string) {
		for _, id := range All {
			c := Lookup(id)
			if got, want := c.ValidateLocationAnswer(answer), validateByRegexp(c, answer); got != want {
				t.Fatalf("%s: ValidateLocationAnswer(%q) = %t, regexp says %t", id, answer, got, want)
			}
		}
	})
}

// TestStandardAnswersInterned: every site's identity, version, debug
// line and egress address is in the set, is standard for its operator
// where it is a location answer, and comes back from Intern as the
// stored copy without allocating. A non-standard answer is a fresh
// copy.
func TestStandardAnswersInterned(t *testing.T) {
	for _, id := range All {
		c := Lookup(id)
		for _, s := range Sites(id) {
			p := s.persona()
			want := []string{s.EgressV4.String(), s.EgressV6.String()}
			location := map[ID]string{Cloudflare: p.Identity, Quad9: p.Identity, OpenDNS: s.debugLine(), Google: s.EgressV4.String()}[id]
			if !c.ValidateLocationAnswer(location) {
				t.Errorf("%s %s: location answer %q is not standard", id, s.City, location)
			}
			want = append(want, location)
			if p.Version != "" {
				want = append(want, p.Version)
			}
			for _, a := range want {
				stored, ok := standardAnswers[a]
				if !ok {
					t.Errorf("%s %s: %q is not interned", id, s.City, a)
					continue
				}
				b := []byte(a)
				var got string
				if n := testing.AllocsPerRun(10, func() { got = Intern(b) }); n != 0 {
					t.Errorf("Intern(%q) allocates %.0f", a, n)
				}
				if unsafe.StringData(got) != unsafe.StringData(stored) || InternString(a) != stored ||
					unsafe.StringData(InternString(a)) != unsafe.StringData(stored) {
					t.Errorf("%q: not the stored copy", a)
				}
			}
		}
	}
	forged := []byte("QJX")
	if got := Intern(forged); got != "QJX" || InternString("QJX") != "QJX" {
		t.Errorf("non-standard answer came back as %q", got)
	}
	if _, ok := standardAnswers["QJX"]; ok {
		t.Error("a forgery is in the standard set")
	}
}
