package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"unsafe"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// replySeeds are FuzzView's seed shapes (internal/dnswire) that a
// detector reads: location answers of every shape, forged and replayed
// CHAOS answers, error responses, an EDNS query, and answer sections
// that mix TXT with addresses or hold several TXT strings.
func replySeeds() []*dnswire.Message {
	chaos := func(id uint16, name dnswire.Name, txt string) *dnswire.Message {
		return dnswire.NewTXTResponse(dnswire.NewChaosTXTQuery(id, name), txt)
	}
	edns := dnswire.NewQuery(5, "o-o.myaddr.l.google.com", dnswire.TypeTXT, dnswire.ClassINET)
	edns.SetEDNS(4096, true)

	whoami := dnswire.NewAddrResponse(dnswire.NewQuery(10, "whoami.example", dnswire.TypeA, dnswire.ClassINET), 60,
		netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("192.0.2.8"))
	whoami6 := dnswire.NewAddrResponse(dnswire.NewQuery(11, "whoami.example", dnswire.TypeAAAA, dnswire.ClassINET), 60,
		netip.MustParseAddr("2001:db8::7"))

	mixed := dnswire.NewResponse(dnswire.NewQuery(12, "all.example", dnswire.TypeANY, dnswire.ClassINET), dnswire.RCodeSuccess)
	mixed.Answers = []dnswire.Record{
		{Name: "all.example", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "all.example", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.TXTRData{Strings: []string{"one", "two"}}},
		{Name: "all.example", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.TXTRData{Strings: []string{"three"}}},
	}
	refusedWithAnswer := dnswire.NewAddrResponse(dnswire.NewQuery(13, "x.test", dnswire.TypeA, dnswire.ClassINET), 1,
		netip.MustParseAddr("198.51.100.1"))
	refusedWithAnswer.Header.RCode = dnswire.RCodeRefused
	empty := chaos(14, "id.server", "")
	empty.Answers[0].Data = dnswire.TXTRData{}

	return []*dnswire.Message{
		dnswire.NewQuery(1, "example.com", dnswire.TypeA, dnswire.ClassINET),
		dnswire.NewChaosTXTQuery(2, "version.bind"),
		chaos(3, "id.server", "IAD"),
		dnswire.NewErrorResponse(dnswire.NewQuery(4, "x.test", dnswire.TypeAAAA, dnswire.ClassINET), dnswire.RCodeRefused),
		edns,
		chaos(6, "id.server", "res104.gru.rrdns.pch.net"),
		chaos(7, "version.bind", "Q9-P-7.3"),
		chaos(8, "id.server", "QJX"),
		dnswire.NewErrorResponse(dnswire.NewChaosTXTQuery(9, "hostname.bind"), dnswire.RCodeNotImplemented),
		whoami, whoami6, mixed, refusedWithAnswer, empty,
	}
}

// standardSeeds answers with every site's standard strings: the
// genuine CHAOS identities and versions, the OpenDNS debug lines, and
// the egress addresses as Google's TXT answer and as whoami A and AAAA
// answers. Their reductions are interned.
func standardSeeds() []*dnswire.Message {
	var out []*dnswire.Message
	for _, id := range publicdns.All {
		target := publicdns.Lookup(id).V4[0]
		for _, site := range publicdns.Sites(id) {
			for _, name := range []dnswire.Name{"id.server", "version.bind"} {
				if txt, _, _ := publicdns.GenuineChaos(target, name, site.Region); txt != "" {
					out = append(out, dnswire.NewTXTResponse(dnswire.NewChaosTXTQuery(1, name), txt))
				}
			}
			// The debug answer is two TXT records, as the site sends it.
			debug := dnswire.NewTXTResponse(dnswire.NewQuery(2, "debug.opendns.com", dnswire.TypeTXT, dnswire.ClassINET),
				fmt.Sprintf("server m%d.%s", 80+site.Index, site.City))
			flags := debug.Answers[0]
			flags.Data = dnswire.TXTRData{Strings: []string{"flags 20 0 2F"}}
			debug.Answers = append(debug.Answers, flags)
			out = append(out, debug)
			q := dnswire.NewQuery(3, "o-o.myaddr.l.google.com", dnswire.TypeTXT, dnswire.ClassINET)
			out = append(out, dnswire.NewTXTResponse(q, site.EgressV4.String()))
			out = append(out,
				dnswire.NewAddrResponse(dnswire.NewQuery(4, publicdns.WhoamiDomain, dnswire.TypeA, dnswire.ClassINET), 0, site.EgressV4),
				dnswire.NewAddrResponse(dnswire.NewQuery(5, publicdns.WhoamiDomain, dnswire.TypeAAAA, dnswire.ClassINET), 0, site.EgressV6))
		}
	}
	return out
}

// interned reports whether an answer is the stored copy when it is a
// standard one (a non-standard answer is trivially itself).
func interned(answer string) bool {
	return unsafe.StringData(publicdns.InternString(answer)) == unsafe.StringData(answer)
}

// FuzzReply is differential: for every message ParseView accepts, the
// in-place reduction the simulated clients use equals ReplyOf over the
// materialized Message, the path of every other transport, and both
// return a standard answer as its interned string.
func FuzzReply(f *testing.F) {
	for _, m := range append(replySeeds(), standardSeeds()...) {
		f.Add(dnswire.MustPack(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := dnswire.ParseView(data)
		if err != nil {
			return
		}
		got, want := replyOf(&v, 0), ReplyOf([]*dnswire.Message{v.Message()}, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view reduction %+v, ReplyOf %+v", got, want)
		}
		if !interned(got.Answer) || !interned(want.Answer) {
			t.Fatalf("standard answer %q not interned (view %t, ReplyOf %t)", got.Answer, interned(got.Answer), interned(want.Answer))
		}
	})
}

// TestReplyOf pins the reduction on the seed shapes: the first TXT
// answer wins over an earlier address, its strings are joined, and the
// rcode and count come through whatever the answers hold.
func TestReplyOf(t *testing.T) {
	seeds := replySeeds()
	for i, c := range []struct {
		seed int
		want Reply
	}{
		{0, Reply{Count: 1}},
		{2, Reply{Count: 1, Answer: "IAD", Answered: true}},
		{3, Reply{Count: 1, RCode: dnswire.RCodeRefused}},
		{9, Reply{Count: 1, Answer: "192.0.2.7", Answered: true}},
		{10, Reply{Count: 1, Answer: "2001:db8::7", Answered: true}},
		{11, Reply{Count: 1, Answer: "onetwo", Answered: true}},
		{12, Reply{Count: 1, RCode: dnswire.RCodeRefused, Answer: "198.51.100.1", Answered: true}},
		{13, Reply{Count: 1, Answered: true}},
	} {
		v, err := dnswire.ParseView(dnswire.MustPack(seeds[c.seed]))
		if err != nil {
			t.Fatal(err)
		}
		if got := replyOf(&v, 0); got != c.want {
			t.Errorf("case %d: replyOf = %+v, want %+v", i, got, c.want)
		}
	}
	two := []*dnswire.Message{seeds[2], seeds[5]}
	if got := ReplyOf(two, 7); got != (Reply{Count: 2, Answer: "IAD", Answered: true, RTT: 7}) {
		t.Errorf("replicated ReplyOf = %+v", got)
	}
	if got := ReplyOf(nil, 7); got != (Reply{}) {
		t.Errorf("ReplyOf(nil) = %+v, want zero", got)
	}
}

// TestStandardRepliesInterned: every standard seed reduces, on both
// paths, to the stored copy of its answer, and the in-place reduction
// allocates nothing for it.
func TestStandardRepliesInterned(t *testing.T) {
	for _, m := range standardSeeds() {
		v, err := dnswire.ParseView(dnswire.MustPack(m))
		if err != nil {
			t.Fatal(err)
		}
		got, want := replyOf(&v, 0), ReplyOf([]*dnswire.Message{m}, 0)
		if got != want || !got.Answered {
			t.Fatalf("%v: view %+v, ReplyOf %+v", m.Question(), got, want)
		}
		// Intern of a fresh copy returns the stored string only for a
		// standard answer.
		stored := unsafe.StringData(publicdns.Intern([]byte(got.Answer)))
		if unsafe.StringData(got.Answer) != stored || unsafe.StringData(want.Answer) != stored {
			t.Errorf("%q: not the interned copy", got.Answer)
		}
		if n := testing.AllocsPerRun(10, func() { replyOf(&v, 0) }); n != 0 {
			t.Errorf("%q: replyOf allocates %.0f", got.Answer, n)
		}
	}
}
