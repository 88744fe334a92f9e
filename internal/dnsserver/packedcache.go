package dnsserver

import (
	"encoding/binary"
	"sync"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// PackedAnswerCache memoizes the wire bytes of CHAOS persona answers.
// The study asks every forwarder and resolver the same handful of
// debugging questions thousands of times; a persona's answer depends
// only on the persona and on the parts of the query the response echoes
// (first question verbatim, opcode, RD) — plus the message ID, which is
// patched into the cached bytes per query. One instance is shared by
// every server of every world stamped from a template — shard worlds
// running concurrently included — so the map is a sync.Map. Two
// worlds racing on a miss both pack the identical bytes (a persona's
// answer is a pure function of the key), so whichever Store wins, the
// cached value is the same; cached slices are never mutated (the ID is
// patched into a copy).
type PackedAnswerCache struct {
	m sync.Map // packedAnswerKey -> []byte
}

type packedAnswerKey struct {
	persona ChaosPersona
	name    dnswire.Name // exact case: responses echo the query's casing
	typ     dnswire.Type
	class   dnswire.Class
	opcode  dnswire.Opcode
	rd      bool
}

// NewPackedAnswerCache returns an empty cache.
func NewPackedAnswerCache() *PackedAnswerCache {
	return &PackedAnswerCache{}
}

// Serve returns the persona's packed answer to query with the query's ID
// patched in, built in a recycled payload buffer from sc (nil sc packs
// into a fresh slice). It returns nil when the persona does not answer
// the query — callers fall through to their unhandled path — or when the
// cache itself is nil, making the fast path strictly optional. A pooled
// buffer is only taken once an answer is certain, so misses never drain
// the payload freelist.
func (c *PackedAnswerCache) Serve(sc *netsim.ServiceCtx, persona ChaosPersona, query *dnswire.Message) []byte {
	if c == nil {
		return nil
	}
	q := query.Question()
	key := packedAnswerKey{
		persona: persona,
		name:    q.Name,
		typ:     q.Type,
		class:   q.Class,
		opcode:  query.Header.Opcode,
		rd:      query.Header.RecursionDesired,
	}
	var wire []byte
	if v, ok := c.m.Load(key); ok {
		wire = v.([]byte)
	} else {
		resp := persona.Answer(query)
		if resp == nil {
			return nil
		}
		packed, err := resp.Pack()
		if err != nil {
			return nil
		}
		wire = packed
		c.m.Store(key, wire)
	}
	var buf []byte
	if sc != nil {
		buf = sc.PayloadBuf()
	}
	start := len(buf)
	buf = append(buf, wire...)
	binary.BigEndian.PutUint16(buf[start:start+2], query.Header.ID)
	return buf
}
