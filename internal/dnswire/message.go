package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// maxUDPPayload is the classic 512-byte UDP limit; the simulator keeps
// messages under it, and Pack refuses to emit larger ones unless the
// message carries an OPT record advertising a bigger size.
const maxUDPPayload = 512

// Question is a single entry of the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s. %s %s", q.Name, q.Class, q.Type)
}

// Record is one resource record of an answer/authority/additional section.
type Record struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record's RR type, taken from its body.
func (r Record) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String renders the record in zone-file-like form.
func (r Record) String() string {
	return fmt.Sprintf("%s. %d %s %s %s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a whole DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// messageQ1 lays out a single-question message and its question slot
// in one allocation; that is the shape of nearly every DNS message.
type messageQ1 struct {
	Message
	q [1]Question
}

// newMessage allocates a message with header h and the one question q.
func newMessage(h Header, q Question) *Message {
	mq := &messageQ1{q: [1]Question{q}}
	mq.Header = h
	mq.Questions = mq.q[:]
	return &mq.Message
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// FirstTXT returns the joined strings of the first TXT answer, and
// whether one was present. Identity-query clients use this.
func (m *Message) FirstTXT() (string, bool) {
	for _, rr := range m.Answers {
		if txt, ok := rr.Data.(TXTRData); ok {
			return txt.Joined(), true
		}
	}
	return "", false
}

// FirstAddr returns the address of the first A or AAAA answer, and
// whether there is one.
func (m *Message) FirstAddr() (netip.Addr, bool) {
	for _, rr := range m.Answers {
		switch d := rr.Data.(type) {
		case ARData:
			return d.Addr, true
		case AAAARData:
			return d.Addr, true
		}
	}
	return netip.Addr{}, false
}

// AnswerAddrs collects all A/AAAA answer addresses in order.
func (m *Message) AnswerAddrs() []string {
	var out []string
	for _, rr := range m.Answers {
		switch d := rr.Data.(type) {
		case ARData:
			out = append(out, d.Addr.String())
		case AAAARData:
			out = append(out, d.Addr.String())
		}
	}
	return out
}

// Pack encodes the message into wire format with name compression across
// owner names. It refuses to emit messages that overflow the UDP payload
// limit rather than silently truncating; servers that need truncation set
// Header.Truncated and trim sections themselves first.
func (m *Message) Pack() ([]byte, error) { return m.PackTo(nil) }

// PackTo appends the message's wire encoding to buf and returns the
// extended slice (possibly reallocated, like append). A nil buf packs
// into a fresh slice pre-sized from a wire-length estimate. Transports
// use PackTo with recycled buffers to keep steady-state packing
// allocation-free; the returned slice aliases buf, so the usual append
// ownership rules apply.
func (m *Message) PackTo(buf []byte) ([]byte, error) {
	start := len(buf)
	buf, err := m.appendPacked(buf)
	if err != nil {
		return nil, err
	}
	if len(buf)-start > maxUDPPayload {
		return nil, fmt.Errorf("dnswire: message is %d bytes, exceeds %d-byte UDP payload", len(buf)-start, maxUDPPayload)
	}
	return buf, nil
}

// appendPacked is the shared pack core: header, questions, and sections
// appended to buf with compression offsets relative to the message start.
// No size ceiling — PackTo enforces the UDP limit, packUnbounded (TCP)
// does not.
func (m *Message) appendPacked(buf []byte) ([]byte, error) {
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	if buf == nil {
		buf = make([]byte, 0, m.wireEstimate())
	}
	start := len(buf)
	buf = h.pack(buf)
	cmp := compressor{base: start}
	var err error
	for _, q := range m.Questions {
		if buf, err = packName(buf, q.Name, &cmp); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = packRecord(buf, rr, &cmp); err != nil {
				return nil, fmt.Errorf("packing record %q: %w", rr.Name, err)
			}
		}
	}
	return buf, nil
}

// wireEstimate upper-bounds the uncompressed wire size so PackTo's fresh
// allocations are single-shot in the common case. Names cost at most
// len+2 octets uncompressed; fixed RDATA shapes are exact and the rest
// falls back to a generous constant.
func (m *Message) wireEstimate() int {
	n := headerLen
	for _, q := range m.Questions {
		n += len(q.Name) + 2 + 4
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			n += len(rr.Name) + 2 + 10 + rdataEstimate(rr.Data)
		}
	}
	return n
}

// rdataEstimate upper-bounds one record body's wire size.
func rdataEstimate(d RData) int {
	switch d := d.(type) {
	case ARData:
		return 4
	case AAAARData:
		return 16
	case TXTRData:
		n := 0
		for _, s := range d.Strings {
			n += 1 + len(s)
		}
		return n
	case CNAMERData:
		return len(d.Target) + 2
	case NSRData:
		return len(d.Host) + 2
	case PTRRData:
		return len(d.Target) + 2
	case MXRData:
		return 2 + len(d.Host) + 2
	case SOARData:
		return len(d.MName) + 2 + len(d.RName) + 2 + 20
	case OPTRData:
		return len(d.Options)
	case RawRData:
		return len(d.Data)
	case DNSKEYRData:
		return 4 + len(d.PublicKey)
	case DSRData:
		return 4 + len(d.Digest)
	case RRSIGRData:
		return 18 + len(d.SignerName) + 2 + len(d.Signature)
	default:
		return 64
	}
}

// packRecord appends one resource record, compressing its owner name
// with cmp.
func packRecord(buf []byte, rr Record, cmp *compressor) ([]byte, error) {
	if rr.Data == nil {
		return buf, fmt.Errorf("%w: record %q has no rdata", ErrBadRData, rr.Name)
	}
	var err error
	if buf, err = packName(buf, rr.Name, cmp); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0) // RDLENGTH placeholder
	if buf, err = rr.Data.packRData(buf); err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return buf, fmt.Errorf("%w: rdata of %q is %d bytes", ErrBadRData, rr.Name, rdlen)
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(rdlen))
	return buf, nil
}

// Unpack decodes a wire-format message. It is strict: counted sections
// must be fully present, and trailing bytes are rejected. It is
// ParseView, which does all the checking, followed by View.Message, so
// the result owns its storage and never aliases msg.
func Unpack(msg []byte) (*Message, error) {
	v, err := ParseView(msg)
	if err != nil {
		return nil, err
	}
	return v.Message(), nil
}

// Message materializes the view. Every string and byte slice is copied
// out of the viewed bytes, so the result stays valid after they are
// recycled. Storage is sized exactly from the validated counts: one
// []Question (in the message's own allocation when there is one
// question), one []Record backing shared by the three sections, one
// string per distinct name and one per TXT rdata. Each section is capped
// with a full-slice expression, so an append to one section reallocates
// instead of overwriting the next; empty sections stay nil.
func (v *View) Message() *Message {
	h := v.Header
	var m *Message
	switch h.QDCount {
	case 0:
		m = &Message{Header: h}
	case 1:
		m = newMessage(h, Question{})
	default:
		m = &Message{Header: h, Questions: make([]Question, h.QDCount)}
	}
	d := decoder{msg: v.msg}
	off := headerLen
	for i := range m.Questions {
		q := &m.Questions[i]
		q.Name, off = d.name(off)
		q.Type = Type(binary.BigEndian.Uint16(v.msg[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(v.msg[off+2 : off+4]))
		off += 4
	}
	an, ns := int(h.ANCount), int(h.NSCount)
	if n := an + ns + int(h.ARCount); n > 0 {
		recs := make([]Record, n)
		for i := range recs {
			off = d.record(&recs[i], off)
		}
		m.Answers = capSection(recs, 0, an)
		m.Authority = capSection(recs, an, an+ns)
		m.Additional = capSection(recs, an+ns, n)
	}
	return m
}

// capSection returns recs[lo:hi] with its capacity capped, or nil if empty.
func capSection(recs []Record, lo, hi int) []Record {
	if lo == hi {
		return nil
	}
	return recs[lo:hi:hi]
}

// decoder materializes a message ParseView has validated, so it checks
// nothing. It remembers the names it has decoded by the wire offset of
// each of their labels: a compression pointer to one of those offsets
// reuses that name's string, or the suffix of it the pointer selects.
type decoder struct {
	msg   []byte
	n     int
	offs  [16]int
	names [16]Name
}

// name decodes the name at off and returns it with the offset after its
// encoding at off.
func (d *decoder) name(off int) (Name, int) {
	msg := d.msg
	switch b := msg[off]; {
	case b == 0:
		return "", off + 1
	case b&0xC0 == 0xC0:
		target := int(b&0x3F)<<8 | int(msg[off+1])
		for i := 0; i < d.n; i++ {
			if d.offs[i] == target {
				return d.names[i], off + 2
			}
		}
	}
	var text [maxNameWire]byte
	b, end := appendName(text[:0], msg, off)
	n := Name(b)
	// Each label read before the first pointer starts a suffix of n.
	for pos := 0; d.n < len(d.offs) && msg[off] != 0 && msg[off]&0xC0 == 0; {
		d.offs[d.n], d.names[d.n] = off, n[pos:]
		d.n++
		l := int(msg[off]) + 1
		pos, off = pos+l, off+l
	}
	return n, end
}

// record decodes the resource record at off into rr and returns the
// offset after it.
func (d *decoder) record(rr *Record, off int) int {
	rr.Name, off = d.name(off)
	msg := d.msg
	typ := Type(binary.BigEndian.Uint16(msg[off : off+2]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	rr.Data = d.rdata(off, rdlen, typ)
	return off + rdlen
}

// String renders the whole message in dig-like form for traces.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; %s\n", m.Header.String())
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";; question: %s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, ";; answer: %s\n", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&sb, ";; authority: %s\n", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&sb, ";; additional: %s\n", rr)
	}
	return sb.String()
}
