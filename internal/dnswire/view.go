package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
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
// Name.Equal. It compares the wire labels against n's text in place.
func nameEqual(msg []byte, off int, n Name) bool {
	pos := 0 // offset in n of the next label's text
	for {
		switch b := msg[off]; {
		case b == 0:
			return pos == len(n)
		case b&0xC0 == 0xC0:
			off = int(b&0x3F)<<8 | int(msg[off+1])
		default:
			if pos > 0 {
				if pos >= len(n) || n[pos] != '.' {
					return false
				}
				pos++
			}
			l := int(b)
			if pos+l > len(n) {
				return false
			}
			for i, c := range msg[off+1 : off+1+l] {
				if lowerASCII(c) != lowerASCII(n[pos+i]) {
					return false
				}
			}
			pos += l
			off += 1 + l
		}
	}
}

// ClientSubnet returns the client-subnet option of the message's first
// OPT record, as Message.ClientSubnet does.
func (v *View) ClientSubnet() (ECS, bool) {
	off := v.an
	for i := 0; i < int(v.Header.ANCount)+int(v.Header.NSCount); i++ {
		off = recordEnd(v.msg, off)
	}
	for i := 0; i < int(v.Header.ARCount); i++ {
		b := v.msg[nameEnd(v.msg, off):]
		if Type(binary.BigEndian.Uint16(b[0:2])) == TypeOPT {
			rdlen := int(binary.BigEndian.Uint16(b[8:10]))
			return parseECS(b[10 : 10+rdlen])
		}
		off = recordEnd(v.msg, off)
	}
	return ECS{}, false
}

// recordEnd returns the offset after the validated record at off.
func recordEnd(msg []byte, off int) int {
	off = nameEnd(msg, off)
	return off + 10 + int(binary.BigEndian.Uint16(msg[off+8:off+10]))
}

// AppendCanonicalQuestion appends the first question in canonical wire
// form: its name uncompressed with ASCII letters lowered, then its type
// and class. Two questions equal under Name.Equal with the same type and
// class append the same bytes, so the result serves as a map key.
func (v *View) AppendCanonicalQuestion(dst []byte) []byte {
	if v.Header.QDCount == 0 {
		return dst
	}
	start := len(dst)
	dst = appendWireName(dst, v.msg, headerLen)
	for i := start; i < len(dst); i++ {
		dst[i] = lowerASCII(dst[i]) // length octets are < 'A'
	}
	return append(dst, v.msg[v.qType:v.qType+4]...)
}

// appendWireName appends the validated name at off in uncompressed wire
// form.
func appendWireName(dst, msg []byte, off int) []byte {
	for {
		switch b := msg[off]; {
		case b == 0:
			return append(dst, 0)
		case b&0xC0 == 0xC0:
			off = int(b&0x3F)<<8 | int(msg[off+1])
		default:
			dst = append(dst, msg[off:off+1+int(b)]...)
			off += 1 + int(b)
		}
	}
}

// The response appenders write a server's answer to the viewed query
// straight into dst. Each writes byte for byte what packing the
// equivalent dnswire builder's Message writes (named on each), so a
// server can answer without decoding the query: the header echoes the
// ID, opcode and RD bit, the first question is copied (uncompressed, as
// Pack writes it), and answer records name it by a pointer to offset 12.

// AppendErrorResponse appends the response NewErrorResponse(q, rc)
// packs to, where q is the viewed query.
func (v *View) AppendErrorResponse(dst []byte, rc RCode) []byte {
	// Without answers nothing can fail: a header and one question are at
	// most 271 octets.
	dst, _ = v.appendResponse(dst, Header{RecursionAvailable: true, RCode: rc}, nil)
	return dst
}

// AppendTXTResponse appends the response that answers the viewed query
// with one TXT record per element of txts, each holding that one
// character-string. With one element it packs as NewTXTResponse(q, s)
// does; further elements are the further records a server appends to
// that Message's answers, with the question's name and class and TTL 0.
// Like PackTo it fails, appending nothing, on a string longer than 255
// octets or a response longer than 512.
func (v *View) AppendTXTResponse(dst []byte, txts ...string) ([]byte, error) {
	return v.appendResponse(dst, Header{Authoritative: true}, txts)
}

// appendResponse appends a response with the flags of h, the query's
// echoed header fields, its first question, and one TXT answer per
// element of txts.
func (v *View) appendResponse(dst []byte, h Header, txts []string) ([]byte, error) {
	start := len(dst)
	h.ID = v.Header.ID
	h.Opcode = v.Header.Opcode
	h.Response = true
	h.RecursionDesired = v.Header.RecursionDesired
	h.ANCount = uint16(len(txts))
	var class Class
	named := false // the question has a non-root name to point at
	if v.Header.QDCount > 0 {
		h.QDCount = 1
	}
	dst = h.pack(dst)
	if v.Header.QDCount > 0 {
		dst = appendWireName(dst, v.msg, headerLen)
		named = dst[start+headerLen] != 0
		dst = append(dst, v.msg[v.qType:v.qType+4]...)
		class = Class(binary.BigEndian.Uint16(v.msg[v.qType+2:]))
	}
	for _, s := range txts {
		if len(s) > 255 {
			return dst[:start], ErrTXTTooLong
		}
		if named {
			dst = append(dst, 0xC0, headerLen)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(TypeTXT))
		dst = binary.BigEndian.AppendUint16(dst, uint16(class))
		dst = binary.BigEndian.AppendUint32(dst, 0) // TTL
		dst = binary.BigEndian.AppendUint16(dst, uint16(1+len(s)))
		dst = append(dst, byte(len(s)))
		dst = append(dst, s...)
	}
	if len(dst)-start > maxUDPPayload {
		return dst[:start], fmt.Errorf("dnswire: message is %d bytes, exceeds %d-byte UDP payload", len(dst)-start, maxUDPPayload)
	}
	return dst, nil
}
