package dnswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// seedMessages builds a corpus of valid packets so the fuzzer starts
// from interesting shapes.
func seedMessages() [][]byte {
	var seeds [][]byte
	add := func(m *Message) {
		if b, err := m.Pack(); err == nil {
			seeds = append(seeds, b)
		}
	}
	add(NewQuery(1, "example.com", TypeA, ClassINET))
	add(NewChaosTXTQuery(2, "version.bind"))
	add(NewTXTResponse(NewChaosTXTQuery(3, "id.server"), "IAD"))
	add(NewErrorResponse(NewQuery(4, "x.test", TypeAAAA, ClassINET), RCodeRefused))
	q := NewQuery(5, "o-o.myaddr.l.google.com", TypeTXT, ClassINET)
	q.SetEDNS(4096, true)
	add(q)
	// Adversarial interceptor wire shapes (dnsserver.Adversary): forged
	// per-target personas for each resolver family, a replayed genuine
	// CHAOS identity, and the starved-budget NOTIMP a rate-limiting
	// interceptor answers with.
	add(NewTXTResponse(NewChaosTXTQuery(6, "id.server"), "res104.gru.rrdns.pch.net"))
	add(NewTXTResponse(NewChaosTXTQuery(7, "version.bind"), "Q9-P-7.3"))
	add(NewTXTResponse(NewChaosTXTQuery(8, "id.server"), "QJX"))
	add(NewErrorResponse(NewChaosTXTQuery(9, "hostname.bind"), RCodeNotImplemented))
	// The property suite's corner shapes (max label, max wire name,
	// EDNS/ECS, every RData, compression with mixed case) make good
	// starting points too.
	for _, m := range cornerMessages() {
		add(m)
	}
	return seeds
}

// FuzzUnpack asserts the decoder's core contract on arbitrary bytes:
// never panic, never loop, every decoded name is one Pack accepts, and —
// when a message decodes — re-encoding and re-decoding is stable (the
// canonical-encoder property).
func FuzzUnpack(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		for _, n := range messageNames(m) {
			if err := validateName(n); err != nil {
				t.Fatalf("decoded name %q fails validateName: %v", n, err)
			}
		}
		repacked, err := m.Pack()
		if err != nil {
			// Legal: a decoded message can exceed the UDP encoding limit
			// after decompression.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not decode: %v", err)
		}
		again, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, again) {
			t.Fatalf("encoder not canonical:\n%x\n%x", repacked, again)
		}
	})
}

// FuzzUnpackName asserts the name decoder's bounds on raw fragments.
func FuzzUnpackName(f *testing.F) {
	f.Add([]byte{7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, 'a', 0xC0, 0x00}, 2)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		name, end, err := unpackName(data, off)
		if err != nil {
			return
		}
		if end < off || end > len(data) {
			t.Fatalf("end %d outside [%d,%d]", end, off, len(data))
		}
		if len(name) > 4*maxNameWire {
			t.Fatalf("decoded name absurdly long: %d", len(name))
		}
	})
}

// messageNames lists every name a message carries: question and owner
// names, and the names inside RDATA.
func messageNames(m *Message) []Name {
	var names []Name
	for _, q := range m.Questions {
		names = append(names, q.Name)
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			names = append(names, rr.Name)
			switch d := rr.Data.(type) {
			case CNAMERData:
				names = append(names, d.Target)
			case NSRData:
				names = append(names, d.Host)
			case PTRRData:
				names = append(names, d.Target)
			case MXRData:
				names = append(names, d.Host)
			case SOARData:
				names = append(names, d.MName, d.RName)
			case RRSIGRData:
				names = append(names, d.SignerName)
			}
		}
	}
	return names
}

// FuzzView is a differential target: ParseView must accept exactly the
// inputs Unpack accepts, with the same error, and the view's in-place
// accessors must read the same header, question and answers as the
// materialized Message.
func FuzzView(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, verr := ParseView(data)
		m, uerr := Unpack(data)
		if fmt.Sprint(verr) != fmt.Sprint(uerr) {
			t.Fatalf("ParseView err = %v, Unpack err = %v", verr, uerr)
		}
		if verr != nil {
			return
		}
		if v.Header != m.Header {
			t.Fatalf("header %+v, want %+v", v.Header, m.Header)
		}
		typ, class, ok := v.Question()
		if ok != (len(m.Questions) > 0) {
			t.Fatalf("Question ok = %t with %d questions", ok, len(m.Questions))
		}
		if ok {
			q := m.Questions[0]
			if typ != q.Type || class != q.Class {
				t.Fatalf("question %s %s, want %s %s", typ, class, q.Type, q.Class)
			}
			if !v.QuestionNameEqual(q.Name) || !v.QuestionNameEqual(flipCase(q.Name)) {
				t.Fatalf("question name does not equal %q", q.Name)
			}
			if v.QuestionNameEqual(q.Name + "x") {
				t.Fatalf("question name %q equals %q", q.Name, q.Name+"x")
			}
			if got := v.QuestionName(""); got != q.Name {
				t.Fatalf("QuestionName = %q, want %q", got, q.Name)
			}
			if got := v.QuestionName(flipCase(q.Name)); got != q.Name {
				t.Fatalf("QuestionName(%q) = %q, want %q", flipCase(q.Name), got, q.Name)
			}
		}
		if v.DO() != m.DO() {
			t.Fatalf("DO = %t, want %t", v.DO(), m.DO())
		}
		add := v.Additional()
		for i, rr := range m.Additional {
			if !add.Next() || add.Type != rr.Type() || add.TTL != rr.TTL {
				t.Fatalf("additional %d: %s %d, want %s %d", i, add.Type, add.TTL, rr.Type(), rr.TTL)
			}
			if got := add.Record(""); !reflect.DeepEqual(got, rr) {
				t.Fatalf("additional %d: Record = %v, want %v", i, got, rr)
			}
		}
		if add.Next() {
			t.Fatalf("cursor yields more than %d additional records", len(m.Additional))
		}
		ans := v.Answers()
		for i, rr := range m.Answers {
			if !ans.Next() {
				t.Fatalf("cursor ended at answer %d of %d", i, len(m.Answers))
			}
			if ans.Type != rr.Type() || ans.Class != rr.Class || ans.TTL != rr.TTL {
				t.Fatalf("answer %d: %s %s %d, want %s %s %d", i, ans.Type, ans.Class, ans.TTL, rr.Type(), rr.Class, rr.TTL)
			}
			if !ans.NameEqual(rr.Name) || !ans.NameEqual(flipCase(rr.Name)) {
				t.Fatalf("answer %d: owner does not equal %q", i, rr.Name)
			}
			var want netip.Addr
			switch d := rr.Data.(type) {
			case ARData:
				want = d.Addr
			case AAAARData:
				want = d.Addr
			}
			for _, owner := range []Name{"", rr.Name, flipCase(rr.Name)} {
				if got := ans.Record(owner); !reflect.DeepEqual(got, rr) {
					t.Fatalf("answer %d: Record(%q) = %v, want %v", i, owner, got, rr)
				}
			}
			wantCovered := TypeNone
			if sig, ok := rr.Data.(RRSIGRData); ok {
				wantCovered = sig.TypeCovered
			}
			if got := ans.TypeCovered(); got != wantCovered {
				t.Fatalf("answer %d: TypeCovered = %s, want %s", i, got, wantCovered)
			}
			if addr, ok := ans.Addr(); addr != want || ok != want.IsValid() {
				t.Fatalf("answer %d: Addr = %v, %t, want %v", i, addr, ok, want)
			}
			txt, ok := ans.AppendTXT([]byte("prefix:"))
			wantTXT, isTXT := rr.Data.(TXTRData)
			if ok != isTXT || (isTXT && string(txt) != "prefix:"+wantTXT.Joined()) {
				t.Fatalf("answer %d: AppendTXT = %q, %t, want %+v", i, txt, ok, rr.Data)
			}
		}
		if ans.Next() {
			t.Fatalf("cursor yields more than %d answers", len(m.Answers))
		}
	})
}

// flipCase swaps the case of every ASCII letter.
func flipCase(n Name) Name {
	b := []byte(n)
	for i, c := range b {
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' {
			b[i] = c ^ 0x20
		}
	}
	return Name(b)
}

// FuzzPackCompression asserts that the stack compression table packs
// byte for byte what the map-keyed table it replaced did, over names of
// mixed case, non-ASCII and invalid UTF-8, at any base offset, and past
// the 16 inline entries.
func FuzzPackCompression(f *testing.F) {
	f.Add([]byte("www.example.com\x00mail.EXAMPLE.com\x00WWW.Example.COM"), uint8(0))
	f.Add([]byte("K.x\x00\u212a.x\x00k.X\x00\xff.y\x00\xfe.Y\x00\u0130.z\x00i\u0307.Z"), uint8(3))
	f.Add([]byte("\u00c9t\u00c9.a\x00\u00e9t\u00e9.A\x00\u00c9T\u00c9.a"), uint8(1))
	var many []string
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf("h%d.Z%d.shared.TEST", i, i%7))
	}
	f.Add([]byte(strings.Join(many, "\x00")), uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, prefix uint8) {
		names := strings.Split(string(data), "\x00")
		m := &Message{Header: Header{ID: 1, Response: true}}
		m.Questions = []Question{{Name: Name(names[0]), Type: TypeTXT, Class: ClassINET}}
		for _, n := range names[1:] {
			m.Answers = append(m.Answers, Record{Name: Name(n), Class: ClassINET, TTL: 1, Data: TXTRData{Strings: []string{"t"}}})
		}
		pre := bytes.Repeat([]byte{0xAA}, int(prefix))
		got, gotErr := m.appendPacked(append([]byte(nil), pre...))
		want, wantErr := legacyAppendPacked(m, append([]byte(nil), pre...))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, legacy err = %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("packed\n%x\nlegacy\n%x", got, want)
		}
	})
}

// legacyAppendPacked is Message.appendPacked as it was with a map-keyed
// compression table, kept as FuzzPackCompression's reference. Its keys
// are each suffix's Canonical form, so names that differ outside ASCII
// (U+212A KELVIN SIGN against "k") never share a pointer.
func legacyAppendPacked(m *Message, buf []byte) ([]byte, error) {
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))
	start := len(buf)
	buf = h.pack(buf)
	cmp := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if buf, err = legacyPackName(buf, q.Name, cmp, start); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = legacyPackName(buf, rr.Name, cmp, start); err != nil {
				return nil, fmt.Errorf("packing record %q: %w", rr.Name, err)
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
			buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
			lenAt := len(buf)
			buf = append(buf, 0, 0)
			if buf, err = rr.Data.packRData(buf); err != nil {
				return nil, fmt.Errorf("packing record %q: %w", rr.Name, err)
			}
			binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(len(buf)-lenAt-2))
		}
	}
	return buf, nil
}

// legacyPackName is packName as it was with a map-keyed table.
func legacyPackName(buf []byte, n Name, cmp map[string]int, base int) ([]byte, error) {
	if err := validateName(n); err != nil {
		return buf, err
	}
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return append(buf, 0), nil
	}
	for pos := 0; ; {
		suffix := string(Name(s[pos:]).Canonical())
		if off, ok := cmp[suffix]; ok && off < 0x4000 {
			return append(buf, byte(0xC0|off>>8), byte(off)), nil
		}
		if off := len(buf) - base; off < 0x4000 {
			cmp[suffix] = off
		}
		end := strings.IndexByte(s[pos:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += pos
		}
		buf = append(buf, byte(end-pos))
		buf = append(buf, s[pos:end]...)
		if end == len(s) {
			break
		}
		pos = end + 1
	}
	return append(buf, 0), nil
}

// FuzzAppendResponse is differential against the Message builders: for
// every query ParseView accepts, the View's response appenders and its
// Responder, fed the input's own records, write the bytes that packing
// the builders' Message writes, ClientSubnet reads
// what Message.ClientSubnet reads, and AppendCanonicalQuestion writes the
// question with its Canonical name, uncompressed.
func FuzzAppendResponse(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s, "IAD", "edns0-client-subnet 192.0.2.0/24", uint8(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, txt, extra string, rc uint8) {
		v, err := ParseView(data)
		if err != nil {
			return
		}
		q := v.Message()
		pre := []byte("pre")

		erc := RCode(rc & 0xF)
		got := v.AppendErrorResponse(append([]byte(nil), pre...), erc)
		want, err := NewErrorResponse(q, erc).PackTo(append([]byte(nil), pre...))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("error response\n%x\nbuilder (%v)\n%x", got, err, want)
		}

		for _, txts := range [][]string{{txt}, {txt, extra}} {
			ref := NewTXTResponse(q, txts[0])
			for _, s := range txts[1:] {
				ref.Answers = append(ref.Answers, Record{
					Name: q.Question().Name, Class: q.Question().Class,
					Data: TXTRData{Strings: []string{s}},
				})
			}
			got, gotErr := v.AppendTXTResponse(append([]byte(nil), pre...), txts...)
			want, wantErr := ref.PackTo(append([]byte(nil), pre...))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%d TXT answers: err = %v, builder err = %v", len(txts), gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%d TXT answers\n%x\nbuilder\n%x", len(txts), got, want)
			}
			if gotErr != nil && string(got) != string(pre) {
				t.Fatalf("failed append left %x, want the prefix alone", got)
			}
		}

		// Respond with the input's own records and the header's flags
		// writes what packing NewResponse with them does.
		h := Header{RCode: erc, Authoritative: rc&0x10 != 0, RecursionAvailable: rc&0x20 != 0, AuthenticData: rc&0x40 != 0}
		ref := NewResponse(q, erc)
		ref.Header.Authoritative, ref.Header.RecursionAvailable, ref.Header.AuthenticData = h.Authoritative, h.RecursionAvailable, h.AuthenticData
		ref.Answers, ref.Authority, ref.Additional = q.Answers, q.Authority, q.Additional
		var w Responder
		w.Start(&v, append([]byte(nil), pre...), h)
		w.Answer(q.Answers...)
		w.Authority(q.Authority...)
		w.Additional(q.Additional...)
		got, gotErr := w.Finish()
		want, wantErr := ref.PackTo(append([]byte(nil), pre...))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Respond err = %v, builder err = %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("Respond\n%x\nbuilder\n%x", got, want)
		}
		if gotErr != nil && string(got) != string(pre) {
			t.Fatalf("failed Respond left %x, want the prefix alone", got)
		}

		ecs, ok := v.ClientSubnet()
		wantECS, wantOK := q.ClientSubnet()
		if ecs != wantECS || ok != wantOK {
			t.Fatalf("ClientSubnet = %v, %t, want %v, %t", ecs, ok, wantECS, wantOK)
		}

		var wantKey []byte
		if len(q.Questions) > 0 {
			qq := q.Questions[0]
			if wantKey, err = packName(nil, qq.Name.Canonical(), nil); err != nil {
				t.Fatal(err)
			}
			wantKey = binary.BigEndian.AppendUint16(wantKey, uint16(qq.Type))
			wantKey = binary.BigEndian.AppendUint16(wantKey, uint16(qq.Class))
		}
		if key := v.AppendCanonicalQuestion(nil); !bytes.Equal(key, wantKey) {
			t.Fatalf("canonical question %x, want %x", key, wantKey)
		}
	})
}

// FuzzTCPFrame pins the RFC 1035 §4.2.2 framing the real-socket TCP
// client and the stream plane read through. On arbitrary bytes:
// AppendTCPFrame then SplitTCPFrame returns the body and the trailing
// bytes unchanged, and ReadTCP agrees with SplitTCPFrame + Unpack —
// both fail, or both decode the same message with the same error.
func FuzzTCPFrame(f *testing.F) {
	for _, s := range seedMessages() {
		framed, _ := AppendTCPFrame(nil, s)
		f.Add(framed, []byte{})
		f.Add(framed[:len(framed)-1], framed[:3])
	}
	f.Add([]byte{0x00}, []byte{0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00}, []byte(nil))
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		framed, err := AppendTCPFrame([]byte("pre"), data)
		if len(data) > maxTCPMessage {
			if err == nil {
				t.Fatalf("framed a %d-byte body", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte body: %v", len(data), err)
		}
		if string(framed[:3]) != "pre" {
			t.Fatalf("frame clobbered its prefix: %x", framed)
		}
		body, rest, err := SplitTCPFrame(append(framed[3:], tail...))
		if err != nil {
			t.Fatalf("split of a whole frame: %v", err)
		}
		if !bytes.Equal(body, data) || !bytes.Equal(rest, tail) {
			t.Fatalf("round trip gave body %x rest %x, want %x and %x", body, rest, data, tail)
		}

		m, rerr := ReadTCP(bytes.NewReader(data))
		body, _, serr := SplitTCPFrame(data)
		if serr != nil {
			if rerr == nil {
				t.Fatalf("ReadTCP decoded %x, which SplitTCPFrame rejects: %v", data, serr)
			}
			return
		}
		want, uerr := Unpack(body)
		if fmt.Sprint(rerr) != fmt.Sprint(uerr) {
			t.Fatalf("ReadTCP err = %v, SplitTCPFrame+Unpack err = %v", rerr, uerr)
		}
		if uerr == nil && !reflect.DeepEqual(m, want) {
			t.Fatalf("ReadTCP = %v, SplitTCPFrame+Unpack = %v", m, want)
		}
	})
}
