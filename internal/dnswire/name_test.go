package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNameLabels(t *testing.T) {
	cases := []struct {
		in   Name
		want []string
	}{
		{"", nil},
		{".", nil},
		{"com", []string{"com"}},
		{"example.com", []string{"example", "com"}},
		{"example.com.", []string{"example", "com"}},
		{"a.b.c.d", []string{"a", "b", "c", "d"}},
	}
	for _, c := range cases {
		if got := c.in.Labels(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Labels(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNameParent(t *testing.T) {
	cases := []struct {
		in     Name
		want   Name
		wantOK bool
	}{
		{"", "", false},
		{"com", "", true},
		{"example.com", "com", true},
		{"www.example.com", "example.com", true},
	}
	for _, c := range cases {
		got, ok := c.in.Parent()
		if got != c.want || ok != c.wantOK {
			t.Errorf("Parent(%q) = %q,%t, want %q,%t", c.in, got, ok, c.want, c.wantOK)
		}
	}
}

func TestNameIsSubdomainOf(t *testing.T) {
	cases := []struct {
		name, zone Name
		want       bool
	}{
		{"example.com", "com", true},
		{"example.com", "example.com", true},
		{"Example.COM", "example.com", true},
		{"example.com", "", true},
		{"example.com", "org", false},
		{"notexample.com", "example.com", false},
		{"a.example.com", "example.com", true},
		{"com", "example.com", false},
	}
	for _, c := range cases {
		if got := c.name.IsSubdomainOf(c.zone); got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %t, want %t", c.name, c.zone, got, c.want)
		}
	}
}

func TestPackNameRoot(t *testing.T) {
	buf, err := packName(nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1 || buf[0] != 0 {
		t.Fatalf("root name encoded as %v, want [0]", buf)
	}
}

func TestPackNameRejectsBadNames(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := packName(nil, Name(long+".com"), nil); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("oversized label: err = %v, want ErrLabelTooLong", err)
	}
	if _, err := packName(nil, "a..b", nil); !errors.Is(err, ErrEmptyName) {
		t.Errorf("empty label: err = %v, want ErrEmptyName", err)
	}
	var parts []string
	for i := 0; i < 60; i++ {
		parts = append(parts, "abcd")
	}
	if _, err := packName(nil, Name(strings.Join(parts, ".")), nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("oversized name: err = %v, want ErrNameTooLong", err)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []Name{
		"",
		"com",
		"example.com",
		"www.example.com",
		"id.server",
		"o-o.myaddr.l.google.com",
		"debug.opendns.com",
		"version.bind",
		"whoami.akamai.com",
		"xn--nxasmq6b.example",
	}
	for _, n := range names {
		buf, err := packName(nil, n, nil)
		if err != nil {
			t.Fatalf("pack %q: %v", n, err)
		}
		got, end, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpack %q: %v", n, err)
		}
		if end != len(buf) {
			t.Errorf("unpack %q consumed %d of %d bytes", n, end, len(buf))
		}
		if !got.Equal(n) {
			t.Errorf("round trip %q = %q", n, got)
		}
	}
}

func TestCompressionPointerRoundTrip(t *testing.T) {
	// Pack two names sharing a suffix into one buffer; the second must be
	// shorter than its uncompressed form and still decode correctly.
	cmp := &compressor{}
	buf, err := packName(nil, "www.example.com", cmp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = packName(buf, "mail.example.com", cmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-first >= len("mail.example.com")+2 {
		t.Errorf("second name not compressed: %d bytes", len(buf)-first)
	}
	n1, end1, err := unpackName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Equal("www.example.com") || end1 != first {
		t.Errorf("first name = %q end=%d", n1, end1)
	}
	n2, end2, err := unpackName(buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if !n2.Equal("mail.example.com") || end2 != len(buf) {
		t.Errorf("second name = %q end=%d", n2, end2)
	}
}

func TestCompressionIdenticalName(t *testing.T) {
	cmp := &compressor{}
	buf, _ := packName(nil, "a.example.com", cmp)
	n := len(buf)
	buf, _ = packName(buf, "a.example.com", cmp)
	if len(buf)-n != 2 {
		t.Errorf("identical repeat encoded as %d bytes, want 2 (pure pointer)", len(buf)-n)
	}
}

func TestUnpackNameMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrShortMessage},
		{"truncated label", []byte{5, 'a', 'b'}, ErrShortMessage},
		{"missing terminator", []byte{1, 'a'}, ErrShortMessage},
		{"self pointer", []byte{0xC0, 0x00}, ErrBadPointer},
		{"forward pointer", []byte{0xC0, 0x10, 0}, ErrBadPointer},
		{"truncated pointer", []byte{0xC0}, ErrShortMessage},
		{"reserved label type", []byte{0x40, 0}, ErrBadRData},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := unpackName(c.in, 0)
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestUnpackNamePointerChainBounded(t *testing.T) {
	// A long backward pointer chain must terminate with an error rather
	// than hang: each pointer at offset 2i points to offset 2(i-1), and
	// offset 0 holds another pointer to... offset 0 is a self-pointer,
	// so build: [0]=label 'a' terminator chain start.
	buf := []byte{1, 'a', 0} // name at 0
	off := len(buf)
	prev := 0
	for i := 0; i < 200; i++ {
		buf = append(buf, 0xC0|byte(prev>>8), byte(prev))
		prev = off
		off += 2
	}
	// Decoding the final pointer walks 200 pointers back to the label.
	n, _, err := unpackName(buf, len(buf)-2)
	if err == nil {
		// Chain longer than budget must error; budget is 127.
		t.Fatalf("200-pointer chain decoded to %q, want error", n)
	}
	if !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("err = %v, want ErrCompressionLoop", err)
	}
}

// randomName generates a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	nlabels := 1 + r.Intn(5)
	labels := make([]string, nlabels)
	for i := range labels {
		l := 1 + r.Intn(12)
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet)-1)] // avoid '-' edge for simplicity
		}
		labels[i] = string(b)
	}
	return Name(strings.Join(labels, "."))
}

func TestPropertyNameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := randomName(r)
		buf, err := packName(nil, n, nil)
		if err != nil {
			return false
		}
		got, end, err := unpackName(buf, 0)
		return err == nil && end == len(buf) && got.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompressedRoundTrip(t *testing.T) {
	// Packing k random names with a shared compression table and decoding
	// each from its recorded offset must reproduce every name.
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		k := 2 + r.Intn(6)
		cmp := &compressor{}
		var buf []byte
		offs := make([]int, k)
		names := make([]Name, k)
		for i := 0; i < k; i++ {
			names[i] = randomName(r)
			if r.Intn(2) == 0 && i > 0 {
				// Force suffix sharing half the time.
				names[i] = Name("x" + string(rune('a'+i)) + "." + string(names[i-1]))
			}
			offs[i] = len(buf)
			var err error
			buf, err = packName(buf, names[i], cmp)
			if err != nil {
				return false
			}
		}
		for i := 0; i < k; i++ {
			got, _, err := unpackName(buf, offs[i])
			if err != nil || !got.Equal(names[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackNameFuzzNoPanics(t *testing.T) {
	// Random byte soup must never panic or loop, only return errors or names.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		unpackName(buf, 0) //nolint:errcheck // only checking for panics/hangs
	}
}

// unpackName decodes one name the way Unpack does: skipName validates
// it, the decoder renders it.
func unpackName(msg []byte, off int) (Name, int, error) {
	end, err := skipName(msg, off)
	if err != nil {
		return "", 0, err
	}
	d := decoder{msg: msg}
	n, _ := d.name(off)
	return n, end, nil
}

// TestUnpackNameLengthCountsRoot pins RFC 1035 §3.1's 255-octet limit
// with the root octet included: labels of 63, 63, 63 and 62 octets
// encode in 256 octets, which Pack rejects, so the decoder must too.
func TestUnpackNameLengthCountsRoot(t *testing.T) {
	wire := func(lens ...int) []byte {
		var b []byte
		for _, l := range lens {
			b = append(b, byte(l))
			b = append(b, strings.Repeat("x", l)...)
		}
		return append(b, 0)
	}
	if _, _, err := unpackName(wire(63, 63, 63, 62), 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("256-octet name: err = %v, want ErrNameTooLong", err)
	}
	n, _, err := unpackName(wire(63, 63, 63, 61), 0)
	if err != nil {
		t.Fatalf("255-octet name: %v", err)
	}
	if err := validateName(n); err != nil {
		t.Errorf("decoded 255-octet name fails validateName: %v", err)
	}

	q := MustPack(NewQuery(1, "x", TypeA, ClassINET))
	long := append(append(q[:headerLen:headerLen], wire(63, 63, 63, 62)...), q[len(q)-4:]...)
	if _, err := Unpack(long); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("Unpack of a 256-octet question name: err = %v, want ErrNameTooLong", err)
	}
}

// TestUnpackNameRejectsDotInLabel: a '.' octet inside a label has no
// faithful Name (it would re-encode as two labels, or as an empty one).
func TestUnpackNameRejectsDotInLabel(t *testing.T) {
	cases := []struct {
		in  []byte
		off int
	}{
		{[]byte{3, 'a', '.', 'b', 0}, 0},
		{[]byte{1, '.', 3, 'c', 'o', 'm', 0}, 0},
		{[]byte{3, 'c', 'o', 'm', 0, 2, 'x', '.', 0xC0, 0x00}, 5},
	}
	for _, c := range cases {
		if _, _, err := unpackName(c.in, c.off); !errors.Is(err, ErrDotInLabel) {
			t.Errorf("%q at %d: err = %v, want ErrDotInLabel", c.in, c.off, err)
		}
	}
}

// TestDecoderReusesPointedNames: a name that is only a pointer to the
// start or the middle of an already decoded name reuses that string.
func TestDecoderReusesPointedNames(t *testing.T) {
	m := NewQuery(1, "www.Example.com", TypeA, ClassINET)
	m.Answers = []Record{
		{Name: "www.example.com", Class: ClassINET, TTL: 1, Data: ARData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "example.COM", Class: ClassINET, TTL: 1, Data: ARData{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
	got, err := Unpack(MustPack(m))
	if err != nil {
		t.Fatal(err)
	}
	q, a0, a1 := got.Questions[0].Name, got.Answers[0].Name, got.Answers[1].Name
	if a0 != "www.Example.com" || a1 != "Example.com" {
		t.Fatalf("answers named %q, %q", a0, a1)
	}
	if unsafe.StringData(string(a0)) != unsafe.StringData(string(q)) ||
		unsafe.StringData(string(a1)) != unsafe.StringData(string(q[4:])) {
		t.Error("pointer-only names were decoded into fresh strings")
	}
}

// TestNameCaseFoldingIsASCII pins RFC 4343 §3: labels are octets, and
// case folding maps A-Z to a-z and nothing else. Unicode folding would
// make "\u212a.example" (KELVIN SIGN, octets E2 84 AA) the name
// "k.example", so a cache keyed by Canonical could answer one name with
// the other's wire and compression could point one at the other.
func TestNameCaseFoldingIsASCII(t *testing.T) {
	kelvin := Name("\u212a.example")
	longS := Name("ver\u017fion.bind") // U+017F LATIN SMALL LETTER LONG S
	for _, c := range []struct{ a, b Name }{
		{kelvin, "k.example"},
		{kelvin, "K.example"},
		{longS, "version.bind"},
		{"\u0130.example", "i.example"}, // U+0130 LATIN CAPITAL LETTER I WITH DOT ABOVE
	} {
		if c.a.Equal(c.b) || c.b.Equal(c.a) {
			t.Errorf("%q equals %q", c.a, c.b)
		}
		if c.a.Canonical() == c.b.Canonical() {
			t.Errorf("%q and %q share the canonical form %q", c.a, c.b, c.a.Canonical())
		}
		if c.a.IsSubdomainOf(c.b) {
			t.Errorf("%q is a subdomain of %q", c.a, c.b)
		}
	}
	if got := Name("WWW.\u00c9xample.COM").Canonical(); got != "www.\u00c9xample.com" {
		t.Errorf("Canonical folds outside ASCII: %q", got)
	}
	if !Name("WWW.Example.COM").Equal("www.example.com") {
		t.Error("ASCII case folding lost")
	}

	m := NewQuery(1, kelvin, TypeA, ClassINET)
	m.Answers = []Record{{Name: "k.example", Class: ClassINET, TTL: 1, Data: ARData{Addr: netip.MustParseAddr("192.0.2.1")}}}
	v, err := ParseView(MustPack(m))
	if err != nil {
		t.Fatal(err)
	}
	if v.QuestionNameEqual("k.example") || !v.QuestionNameEqual(kelvin) {
		t.Error("View folds the question name outside ASCII")
	}
	if got := v.Message().Answers[0].Name; got != "k.example" {
		t.Errorf("answer owner packed as %q: compressed against the question", got)
	}
	if a, b := v.AppendCanonicalQuestion(nil), mustView(t, NewQuery(2, "k.example", TypeA, ClassINET)).AppendCanonicalQuestion(nil); bytes.Equal(a, b) {
		t.Error("canonical question keys of distinct names collide")
	}
}

func mustView(t *testing.T, m *Message) *View {
	t.Helper()
	v, err := ParseView(MustPack(m))
	if err != nil {
		t.Fatal(err)
	}
	return &v
}
