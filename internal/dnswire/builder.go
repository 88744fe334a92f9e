package dnswire

import (
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
