package dnsserver

import (
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
			if n := len(z.Origin.Labels()); n > bestLabels {
				best, bestLabels = z, n
			}
		}
	}
	return best
}

// ServeUDP implements netsim.Service.
func (s *AuthServer) ServeUDP(sc *netsim.ServiceCtx, pkt netsim.Packet) {
	v, err := dnswire.ParseView(pkt.Payload)
	if err != nil || v.Header.Response || v.Header.QDCount == 0 {
		return // garbage or not a query: drop silently
	}
	if r, ok := s.Persona.answerView(&v); ok {
		r.send(sc, pkt, &v)
		return
	}
	query := v.Message()
	resp := s.handle(query, pkt)
	if resp == nil {
		return
	}
	payload, err := resp.Pack()
	if err != nil {
		payload = dnswire.MustPack(dnswire.NewErrorResponse(query, dnswire.RCodeServerFailure))
	}
	sc.Reply(pkt, payload)
}

// handle computes the response message to a query the persona does not
// answer.
func (s *AuthServer) handle(query *dnswire.Message, pkt netsim.Packet) *dnswire.Message {
	q := query.Question()
	if q.Class != dnswire.ClassINET {
		return dnswire.NewErrorResponse(query, dnswire.RCodeNotImplemented)
	}
	zone := s.bestZone(q.Name)
	if zone == nil {
		return dnswire.NewErrorResponse(query, dnswire.RCodeRefused)
	}
	result, rrs, deleg := zone.Lookup(q, pkt.Src)
	resp := dnswire.NewResponse(query, dnswire.RCodeSuccess)
	resp.Header.Authoritative = true
	wantDNSSEC := query.DO() && zone.Signed()
	switch result {
	case LookupAnswer, LookupCNAME:
		resp.Answers = append(resp.Answers, rrs...)
		if wantDNSSEC && len(rrs) > 0 {
			if sig, ok := zone.SignatureFor(rrs[0].Name, rrs[0].Type()); ok {
				resp.Answers = append(resp.Answers, sig)
			}
		}
		if result == LookupCNAME {
			// Chase the alias within our own authority, as real auths do.
			if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
				s.chaseCNAME(resp, cname.Target, q, pkt, 0)
			}
		}
	case LookupNoData:
		resp.Authority = append(resp.Authority, zone.SOARecord())
	case LookupNXDomain:
		resp.Header.RCode = dnswire.RCodeNameError
		resp.Authority = append(resp.Authority, zone.SOARecord())
	case LookupDelegation:
		resp.Header.Authoritative = false
		resp.Authority, resp.Additional = deleg.authority, deleg.additional
	case LookupOutOfZone:
		resp.Header.RCode = dnswire.RCodeRefused
	}
	return resp
}

// chaseCNAME follows in-bailiwick aliases up to a small depth.
func (s *AuthServer) chaseCNAME(resp *dnswire.Message, target dnswire.Name, q dnswire.Question, pkt netsim.Packet, depth int) {
	if depth > 4 {
		return
	}
	zone := s.bestZone(target)
	if zone == nil {
		return
	}
	result, rrs, _ := zone.Lookup(dnswire.Question{Name: target, Type: q.Type, Class: q.Class}, pkt.Src)
	switch result {
	case LookupAnswer:
		resp.Answers = append(resp.Answers, rrs...)
	case LookupCNAME:
		resp.Answers = append(resp.Answers, rrs...)
		if cname, ok := rrs[0].Data.(dnswire.CNAMERData); ok {
			s.chaseCNAME(resp, cname.Target, q, pkt, depth+1)
		}
	}
}
