package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// View is a validated, read-only view of one wire-format message over
// borrowed bytes. ParseView walks the message once, checks it exactly as
// strictly as Unpack (Unpack is ParseView plus Message), and records
// where the sections start; the accessors then read fields in place, so
// a caller that needs only the rcode, a TTL or one answer never builds a
// Message. The design follows the section-by-section Parser of
// golang.org/x/net/dns/dnsmessage
// (https://pkg.go.dev/golang.org/x/net/dns/dnsmessage); it is not
// imported.
//
// A View aliases the bytes it was parsed from and is valid only while
// they are unchanged. Anything kept past the buffer's reuse must be
// copied out: Message does that for the whole message.
type View struct {
	Header Header

	msg   []byte
	qType int // offset of the first question's type field
	an    int // offset of the answer section
}

// ParseView validates msg and returns a view of it. Its errors are
// Unpack's.
func ParseView(msg []byte) (View, error) {
	v := View{msg: msg}
	if err := v.Header.unpack(msg); err != nil {
		return View{}, err
	}
	off := headerLen
	var err error
	for i := 0; i < int(v.Header.QDCount); i++ {
		if off, err = skipName(msg, off); err != nil {
			return View{}, fmt.Errorf("question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return View{}, fmt.Errorf("question %d: %w", i, ErrShortMessage)
		}
		if i == 0 {
			v.qType = off
		}
		off += 4
	}
	v.an = off
	sections := [...]struct {
		count int
		name  string
	}{
		{int(v.Header.ANCount), "answer"},
		{int(v.Header.NSCount), "authority"},
		{int(v.Header.ARCount), "additional"},
	}
	for _, sec := range sections {
		for i := 0; i < sec.count; i++ {
			if off, err = skipRecord(msg, off); err != nil {
				return View{}, fmt.Errorf("%s record %d: %w", sec.name, i, err)
			}
		}
	}
	if off != len(msg) {
		return View{}, ErrTrailingBytes
	}
	return v, nil
}

// skipRecord validates the resource record at off and returns the offset
// after it.
func skipRecord(msg []byte, off int) (int, error) {
	off, err := skipName(msg, off)
	if err != nil {
		return 0, err
	}
	if off+10 > len(msg) {
		return 0, ErrShortMessage
	}
	typ := Type(binary.BigEndian.Uint16(msg[off : off+2]))
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	if err := checkRData(msg, off, rdlen, typ); err != nil {
		return 0, err
	}
	return off + rdlen, nil
}

// Question returns the first question's type and class, and false if the
// question section is empty.
func (v *View) Question() (Type, Class, bool) {
	if v.Header.QDCount == 0 {
		return TypeNone, 0, false
	}
	b := v.msg[v.qType:]
	return Type(binary.BigEndian.Uint16(b[0:2])), Class(binary.BigEndian.Uint16(b[2:4])), true
}

// QuestionNameEqual reports whether the first question's name equals n
// under Name.Equal, reading the wire labels in place.
func (v *View) QuestionNameEqual(n Name) bool {
	return v.Header.QDCount > 0 && nameEqual(v.msg, headerLen, n)
}

// Answers returns a cursor over the answer section.
func (v *View) Answers() Answers {
	return Answers{msg: v.msg, next: v.an, left: int(v.Header.ANCount)}
}

// Answers is a cursor over a View's answer section. Next advances to the
// next record and reports whether there was one; the exported fields and
// the methods then describe that record.
type Answers struct {
	Type  Type
	Class Class
	TTL   uint32

	msg        []byte
	next, left int // offset and count of the records not yet visited
	name       int // current record's owner name offset
	rdata      int // current record's RDATA offset
	rdlen      int
}

// Next advances to the next answer record.
func (a *Answers) Next() bool {
	if a.left == 0 {
		return false
	}
	a.left--
	a.name = a.next
	off := nameEnd(a.msg, a.name)
	b := a.msg[off : off+10]
	a.Type = Type(binary.BigEndian.Uint16(b[0:2]))
	a.Class = Class(binary.BigEndian.Uint16(b[2:4]))
	a.TTL = binary.BigEndian.Uint32(b[4:8])
	a.rdlen = int(binary.BigEndian.Uint16(b[8:10]))
	a.rdata = off + 10
	a.next = a.rdata + a.rdlen
	return true
}

// NameEqual reports whether the record's owner name equals n under
// Name.Equal, reading the wire labels in place.
func (a *Answers) NameEqual(n Name) bool { return nameEqual(a.msg, a.name, n) }

// Addr returns the address of an A or AAAA record, and false for any
// other type.
func (a *Answers) Addr() (netip.Addr, bool) {
	body := a.msg[a.rdata : a.rdata+a.rdlen]
	switch a.Type {
	case TypeA:
		return netip.AddrFrom4([4]byte(body)), true
	case TypeAAAA:
		return netip.AddrFrom16([16]byte(body)), true
	}
	return netip.Addr{}, false
}

// AppendTXT appends a TXT record's character-strings, concatenated as
// TXTRData.Joined renders them, to dst; for any other type it returns dst
// and false.
func (a *Answers) AppendTXT(dst []byte) ([]byte, bool) {
	if a.Type != TypeTXT {
		return dst, false
	}
	body := a.msg[a.rdata : a.rdata+a.rdlen]
	for i := 0; i < len(body); {
		l := int(body[i])
		dst = append(dst, body[i+1:i+1+l]...)
		i += 1 + l
	}
	return dst, true
}

// nameEnd returns the offset after the encoding at off of a name that
// skipName has validated.
func nameEnd(msg []byte, off int) int {
	for {
		switch b := msg[off]; {
		case b == 0:
			return off + 1
		case b&0xC0 == 0xC0:
			return off + 2
		default:
			off += 1 + int(b)
		}
	}
}

// nameEqual reports whether the validated name at off equals n under
// Name.Equal. It renders the labels into a stack buffer rather than a
// new string.
func nameEqual(msg []byte, off int, n Name) bool {
	var buf [maxNameWire]byte
	text, _ := appendName(buf[:0], msg, off)
	return strings.EqualFold(string(text), string(n))
}
