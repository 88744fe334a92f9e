package dnsserver

import (
	"net/netip"
	"strings"

	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// AuthServer is an authoritative-only DNS server serving one or more
// zones. It answers from zone data, emits referrals at zone cuts, and
// REFUSEs queries for names it is not authoritative for — it never
// recurses.
type AuthServer struct {
	// Persona answers CHAOS debugging queries.
	Persona ChaosPersona

	zones []*Zone
	// lastName is the question name last asked, reused while the next
	// question spells it the same.
	lastName dnswire.Name
}

// NewAuthServer creates a server over the given zones.
func NewAuthServer(zones ...*Zone) *AuthServer {
	s := &AuthServer{Persona: ChaosPersona{}}
	s.zones = append(s.zones, zones...)
	return s
}

// bestZone picks the zone with the longest origin matching name.
func (s *AuthServer) bestZone(name dnswire.Name) *Zone {
	var best *Zone
	bestLabels := -1
	for _, z := range s.zones {
		if name.IsSubdomainOf(z.Origin) {
			if n := labelCount(z.Origin); n > bestLabels {
				best, bestLabels = z, n
			}
		}
	}
	return best
}

// labelCount is len(n.Labels()), counted without splitting.
func labelCount(n dnswire.Name) int {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return 0
	}
	return strings.Count(s, ".") + 1
}

// ServeUDP implements netsim.Service.
func (s *AuthServer) ServeUDP(sc *netsim.ServiceCtx, pkt *netsim.Packet) {
	v, err := dnswire.ParseView(pkt.Payload)
	if err != nil || v.Header.Response || v.Header.QDCount == 0 {
		return // garbage or not a query: drop silently
	}
	if r, ok := s.Persona.answerView(&v); ok {
		r.send(sc, pkt, &v)
		return
	}
	sc.Reply(pkt, s.handle(sc.PayloadBuf(), &v, pkt.Src))
}

// handle appends the response to a query the persona does not answer,
// written from the query's view, to dst.
func (s *AuthServer) handle(dst []byte, query *dnswire.View, src netip.AddrPort) []byte {
	typ, class, _ := query.Question()
	if class != dnswire.ClassINET {
		return query.AppendErrorResponse(dst, dnswire.RCodeNotImplemented)
	}
	s.lastName = query.QuestionName(s.lastName)
	q := dnswire.Question{Name: s.lastName, Type: typ, Class: class}
	zone := s.bestZone(q.Name)
	if zone == nil {
		return query.AppendErrorResponse(dst, dnswire.RCodeRefused)
	}
	result, rrs, deleg := zone.Lookup(q, src)
	h := dnswire.Header{Authoritative: true}
	switch result {
	case LookupNXDomain:
		h.RCode = dnswire.RCodeNameError
	case LookupDelegation:
		h.Authoritative = false
	case LookupOutOfZone:
		h.RCode = dnswire.RCodeRefused
	}
	var w dnswire.Responder
	w.Start(query, dst, h)
	switch result {
	case LookupAnswer, LookupCNAME:
		w.Answer(rrs...)
		if query.DO() && zone.Signed() && len(rrs) > 0 {
			if sig, ok := zone.SignatureFor(rrs[0].Name, rrs[0].Type()); ok {
				w.Answer(sig)
			}
		}
		if result == LookupCNAME {
			// Chase the alias within our own authority, as real auths do.
			if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
				s.chaseCNAME(&w, cname.Target, q, src, 0)
			}
		}
	case LookupNoData, LookupNXDomain:
		w.Authority(zone.SOARecord())
	case LookupDelegation:
		w.Authority(deleg.authority...)
		w.Additional(deleg.additional...)
	}
	out, err := w.Finish()
	if err != nil {
		return query.AppendErrorResponse(out, dnswire.RCodeServerFailure)
	}
	return out
}

// chaseCNAME follows in-bailiwick aliases up to a small depth.
func (s *AuthServer) chaseCNAME(w *dnswire.Responder, target dnswire.Name, q dnswire.Question, src netip.AddrPort, depth int) {
	if depth > 4 {
		return
	}
	zone := s.bestZone(target)
	if zone == nil {
		return
	}
	result, rrs, _ := zone.Lookup(dnswire.Question{Name: target, Type: q.Type, Class: q.Class}, src)
	switch result {
	case LookupAnswer:
		w.Answer(rrs...)
	case LookupCNAME:
		w.Answer(rrs...)
		if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
			s.chaseCNAME(w, cname.Target, q, src, depth+1)
		}
	}
}
