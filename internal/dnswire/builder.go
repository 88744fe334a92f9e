package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// NewQuery builds a standard recursive query for one question.
func NewQuery(id uint16, name Name, typ Type, class Class) *Message {
	return newMessage(Header{
		ID:               id,
		Opcode:           OpcodeQuery,
		RecursionDesired: true,
	}, Question{Name: name, Type: typ, Class: class})
}

// NewChaosTXTQuery builds a CHAOS-class TXT query, the shape of every
// server-identity debugging query (id.server, version.bind,
// hostname.bind — RFC 4892).
func NewChaosTXTQuery(id uint16, name Name) *Message {
	// CHAOS queries are conventionally sent without RD; BIND ignores the
	// bit for CH TXT, and forwarders answer regardless.
	m := NewQuery(id, name, TypeTXT, ClassCHAOS)
	m.Header.RecursionDesired = false
	return m
}

// Query describes a one-question query for AppendQuery.
type Query struct {
	ID    uint16
	Name  Name
	Type  Type
	Class Class
	// RD is the recursion-desired bit: NewQuery sets it,
	// NewChaosTXTQuery and iterating resolvers clear it.
	RD bool
	// EDNS, when non-zero, adds the OPT record SetEDNS(EDNS, DO) adds.
	EDNS uint16
	DO   bool
}

// Message builds q as a Message: NewQuery with q's RD bit, and SetEDNS
// when q.EDNS is set.
func (q Query) Message() *Message {
	m := NewQuery(q.ID, q.Name, q.Type, q.Class)
	m.Header.RecursionDesired = q.RD
	if q.EDNS != 0 {
		m.SetEDNS(q.EDNS, q.DO)
	}
	return m
}

// AppendQuery appends q's wire encoding to dst without building a
// Message: the bytes NewQuery (with q.RD), then SetEDNS when q.EDNS is
// set, then PackTo produce. dst grows at most once. On an invalid name
// it returns dst unchanged and the error PackTo would.
func AppendQuery(dst []byte, q Query) ([]byte, error) {
	if err := validateName(q.Name); err != nil {
		return dst, fmt.Errorf("packing question %q: %w", q.Name, err)
	}
	h := Header{ID: q.ID, Opcode: OpcodeQuery, RecursionDesired: q.RD, QDCount: 1}
	n := headerLen + len(q.Name) + 2 + 4
	if q.EDNS != 0 {
		h.ARCount = 1
		n += 11
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = h.pack(dst)
	dst, _ = packName(dst, q.Name, nil) // a lone name has nothing to point at
	dst = binary.BigEndian.AppendUint16(dst, uint16(q.Type))
	dst = binary.BigEndian.AppendUint16(dst, uint16(q.Class))
	if q.EDNS != 0 {
		var ttl uint32
		if q.DO {
			ttl = ednsDOBit
		}
		dst = append(dst, 0) // root owner name
		dst = binary.BigEndian.AppendUint16(dst, uint16(TypeOPT))
		dst = binary.BigEndian.AppendUint16(dst, q.EDNS)
		dst = binary.BigEndian.AppendUint32(dst, ttl)
		dst = append(dst, 0, 0) // no options
	}
	return dst, nil
}

// NewResponse builds a response skeleton echoing the query's ID, first
// question, opcode, and RD bit, as a well-behaved server must.
func NewResponse(query *Message, rcode RCode) *Message {
	h := Header{
		ID:               query.Header.ID,
		Opcode:           query.Header.Opcode,
		Response:         true,
		RecursionDesired: query.Header.RecursionDesired,
		RCode:            rcode,
	}
	if len(query.Questions) == 0 {
		return &Message{Header: h}
	}
	return newMessage(h, query.Questions[0])
}

// NewTXTResponse answers a (usually CHAOS) TXT query with the given
// strings, TTL 0 as BIND does for CH TXT.
func NewTXTResponse(query *Message, strings ...string) *Message {
	resp := NewResponse(query, RCodeSuccess)
	resp.Header.Authoritative = true
	q := query.Question()
	resp.Answers = append(resp.Answers, Record{
		Name:  q.Name,
		Class: q.Class,
		TTL:   0,
		Data:  TXTRData{Strings: strings},
	})
	return resp
}

// NewAddrResponse answers an A or AAAA query with the given addresses.
// Addresses of the wrong family for the question type are skipped.
func NewAddrResponse(query *Message, ttl uint32, addrs ...netip.Addr) *Message {
	resp := NewResponse(query, RCodeSuccess)
	resp.Header.RecursionAvailable = true
	q := query.Question()
	for _, a := range addrs {
		var data RData
		switch {
		case q.Type == TypeA && a.Is4():
			data = ARData{Addr: a}
		case q.Type == TypeAAAA && a.Is6() && !a.Is4In6():
			data = AAAARData{Addr: a}
		default:
			continue
		}
		resp.Answers = append(resp.Answers, Record{
			Name:  q.Name,
			Class: ClassINET,
			TTL:   ttl,
			Data:  data,
		})
	}
	return resp
}

// NewErrorResponse answers with an error rcode and no records.
func NewErrorResponse(query *Message, rcode RCode) *Message {
	resp := NewResponse(query, rcode)
	resp.Header.RecursionAvailable = true
	return resp
}

// MustPack packs a message and panics on error. For use in tests and
// static configuration where the message is known-valid.
func MustPack(m *Message) []byte {
	b, err := m.Pack()
	if err != nil {
		panic(err)
	}
	return b
}
