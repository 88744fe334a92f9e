package dnswire

import (
	"bytes"
	"strings"
	"testing"
)

// TestAppendQueryMatchesPack pins AppendQuery byte-identical to the
// Message path it replaces, NewQuery or NewChaosTXTQuery with SetEDNS
// and PackTo, over name shapes, both RD settings and the EDNS variants
// the detector and the iterating resolver send.
func TestAppendQueryMatchesPack(t *testing.T) {
	names := []Name{
		"", "com", "id.server", "version.bind", "o-o.myaddr.l.google.com",
		"Sub.Example.COM", "trailing.dot.",
		Name(strings.Repeat("m", maxLabel) + ".example"),
		Name(strings.TrimSuffix(strings.Repeat("abcdefg.", 31), ".")),
	}
	edns := []struct {
		size uint16
		do   bool
	}{{0, false}, {4096, true}, {512, false}, {1232, true}}
	prefix := []byte{0xAA, 0xBB} // AppendQuery appends after what dst holds
	for _, name := range names {
		for _, tc := range []struct {
			typ   Type
			class Class
		}{{TypeA, ClassINET}, {TypeAAAA, ClassINET}, {TypeTXT, ClassINET}, {TypeTXT, ClassCHAOS}} {
			for _, rd := range []bool{true, false} {
				for _, e := range edns {
					id := uint16(len(name)*7 + int(tc.typ))
					m := NewQuery(id, name, tc.typ, tc.class)
					if tc.class == ClassCHAOS && !rd {
						m = NewChaosTXTQuery(id, name)
					}
					m.Header.RecursionDesired = rd
					if e.size != 0 {
						m.SetEDNS(e.size, e.do)
					}
					want, werr := m.PackTo(nil)
					got, gerr := AppendQuery(append([]byte(nil), prefix...), Query{
						ID: id, Name: name, Type: tc.typ, Class: tc.class, RD: rd, EDNS: e.size, DO: e.do,
					})
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%q: PackTo error %v, AppendQuery error %v", name, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
						t.Errorf("%q %s %s rd=%t edns=%+v:\nAppendQuery %x\nPackTo      %x", name, tc.class, tc.typ, rd, e, got[2:], want)
					}
				}
			}
		}
	}
}

// TestAppendQueryRejectsBadNames: an invalid name fails as PackTo
// fails, leaving dst as it was.
func TestAppendQueryRejectsBadNames(t *testing.T) {
	for _, name := range []Name{
		"a..b",
		Name(strings.Repeat("m", maxLabel+1) + ".example"),
		Name(strings.Repeat("abcdefg.", 40)),
	} {
		_, werr := NewQuery(1, name, TypeA, ClassINET).PackTo(nil)
		dst := []byte{1, 2, 3}
		got, gerr := AppendQuery(dst, Query{ID: 1, Name: name, Type: TypeA, Class: ClassINET, RD: true})
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%.20q: PackTo error %v, AppendQuery error %v", name, werr, gerr)
		}
		if !bytes.Equal(got, dst) {
			t.Errorf("%.20q: dst became %x", name, got)
		}
	}
}

// TestAppendQueryAllocs: into a buffer with room, AppendQuery
// allocates nothing; into nil, exactly once.
func TestAppendQueryAllocs(t *testing.T) {
	q := Query{ID: 9, Name: "o-o.myaddr.l.google.com", Type: TypeTXT, Class: ClassINET, RD: true, EDNS: 4096, DO: true}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendQuery(buf[:0], q) }); n != 0 {
		t.Errorf("AppendQuery into a recycled buffer allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = AppendQuery(nil, q) }); n != 1 {
		t.Errorf("AppendQuery into nil allocates %.1f/op, want 1", n)
	}
}
