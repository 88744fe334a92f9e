// Package dnsserver implements the DNS server engines that populate the
// simulated Internet: authoritative servers, a dnsmasq-style forwarder
// (the software that runs on most CPE, per Table 5 of the paper), and a
// full iterative recursive resolver. All of them speak real DNS packets
// via internal/dnswire and run as netsim services.
package dnsserver

import (
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

// ChaosPersona describes how a DNS server answers the CHAOS-class
// debugging queries of RFC 4892. These answers are the paper's
// fingerprinting signal: the version.bind string identifies the software
// (and therefore the device) that really answered an intercepted query.
type ChaosPersona struct {
	// Version is the version.bind answer. Empty means the server does
	// not implement it and responds with VersionRCode instead.
	Version string
	// Identity is the id.server / hostname.bind answer. Empty means
	// IdentityRCode.
	Identity string
	// VersionRCode is the response code when Version is empty
	// (zero value RCodeSuccess is treated as NOTIMP).
	VersionRCode dnswire.RCode
	// IdentityRCode is the response code when Identity is empty
	// (zero value treated as NOTIMP).
	IdentityRCode dnswire.RCode
}

// rcodeOrNotImp maps the zero value to NOTIMP.
func rcodeOrNotImp(rc dnswire.RCode) dnswire.RCode {
	if rc == dnswire.RCodeSuccess {
		return dnswire.RCodeNotImplemented
	}
	return rc
}

// chaosNames are the RFC 4892 debugging query names.
const (
	chaosVersionBind  = dnswire.Name("version.bind")
	chaosVersionSrv   = dnswire.Name("version.server")
	chaosHostnameBind = dnswire.Name("hostname.bind")
	chaosIDServer     = dnswire.Name("id.server")
)

var chaosDebugNames = [...]dnswire.Name{chaosVersionBind, chaosVersionSrv, chaosHostnameBind, chaosIDServer}

// IsChaosDebugName reports whether name is one of the debugging names.
func IsChaosDebugName(name dnswire.Name) bool {
	for _, n := range chaosDebugNames {
		if name.Equal(n) {
			return true
		}
	}
	return false
}

// IsVersionQuery reports whether name asks for the software version.
func IsVersionQuery(name dnswire.Name) bool {
	return name.Equal(chaosVersionBind) || name.Equal(chaosVersionSrv)
}

// IsIdentityQuery reports whether name asks for the server identity.
func IsIdentityQuery(name dnswire.Name) bool {
	return name.Equal(chaosHostnameBind) || name.Equal(chaosIDServer)
}

// isChaosTXT reports whether the viewed query asks a CHAOS TXT question.
func isChaosTXT(v *dnswire.View) bool {
	typ, class, _ := v.Question()
	return class == dnswire.ClassCHAOS && typ == dnswire.TypeTXT
}

// chaosDebugName returns the debugging name the viewed query asks, in
// canonical form, or "" if it asks none. Passing the canonical constant
// on keeps the query's own name undecoded.
func chaosDebugName(v *dnswire.View) dnswire.Name {
	for _, n := range chaosDebugNames {
		if v.QuestionNameEqual(n) {
			return n
		}
	}
	return ""
}

// chaosReply is a CHAOS debugging answer as data: one TXT string, or
// with isErr an error response with rc.
type chaosReply struct {
	txt   string
	rc    dnswire.RCode
	isErr bool
}

// chaosError is the error reply with rc.
func chaosError(rc dnswire.RCode) chaosReply { return chaosReply{rc: rc, isErr: true} }

// send answers pkt, which carries the viewed query, with the reply.
func (r chaosReply) send(sc *netsim.ServiceCtx, pkt netsim.Packet, v *dnswire.View) {
	if r.isErr {
		sendError(sc, pkt, v, r.rc)
		return
	}
	sendTXT(sc, pkt, v, r.txt)
}

// sendTXT answers pkt, which carries the viewed query, with one TXT
// record per string of txts (see dnswire.View.AppendTXTResponse), written
// into a recycled payload buffer. An answer that cannot be encoded, a
// string over 255 octets, is a server fault: the client gets SERVFAIL.
func sendTXT(sc *netsim.ServiceCtx, pkt netsim.Packet, v *dnswire.View, txts ...string) {
	buf := sc.PayloadBuf()
	wire, err := v.AppendTXTResponse(buf, txts...)
	if err != nil {
		wire = v.AppendErrorResponse(buf, dnswire.RCodeServerFailure)
	}
	sc.Reply(pkt, wire)
}

// sendError answers pkt, which carries the viewed query, with an error
// response written into a recycled payload buffer.
func sendError(sc *netsim.ServiceCtx, pkt netsim.Packet, v *dnswire.View, rc dnswire.RCode) {
	sc.Reply(pkt, v.AppendErrorResponse(sc.PayloadBuf(), rc))
}

// answer returns the persona's reply to a CHAOS TXT query for name, one
// of the debugging names or "" for any other.
func (p ChaosPersona) answer(name dnswire.Name) chaosReply {
	switch {
	case IsVersionQuery(name):
		if p.Version == "" {
			return chaosError(rcodeOrNotImp(p.VersionRCode))
		}
		return chaosReply{txt: p.Version}
	case IsIdentityQuery(name):
		if p.Identity == "" {
			return chaosError(rcodeOrNotImp(p.IdentityRCode))
		}
		return chaosReply{txt: p.Identity}
	default:
		// Unknown CHAOS name: NOTIMP, as BIND-family servers answer.
		return chaosError(dnswire.RCodeNotImplemented)
	}
}

// answerView returns the persona's reply to the viewed query, and false
// unless it is a CHAOS TXT query.
func (p ChaosPersona) answerView(v *dnswire.View) (chaosReply, bool) {
	if !isChaosTXT(v) {
		return chaosReply{}, false
	}
	return p.answer(chaosDebugName(v)), true
}

// Stock personas. The version strings reproduce Table 5 of the paper —
// the strings real CPE returned to version.bind during the pilot study.
var (
	// PersonaDnsmasq is stock dnsmasq, the most common CPE forwarder.
	PersonaDnsmasq = ChaosPersona{Version: "dnsmasq-2.85"}
	// PersonaDnsmasqOld is an older dnsmasq build.
	PersonaDnsmasqOld = ChaosPersona{Version: "dnsmasq-2.78"}
	// PersonaPiHole is dnsmasq as shipped by Pi-hole.
	PersonaPiHole = ChaosPersona{Version: "dnsmasq-pi-hole-2.87"}
	// PersonaUnbound is an unbound resolver with default identity config.
	PersonaUnbound = ChaosPersona{Version: "unbound 1.9.0", Identity: "unbound"}
	// PersonaRedHat is a distro BIND.
	PersonaRedHat = ChaosPersona{Version: "9.11.4-RedHat", Identity: "localhost"}
	// PersonaDebian is a distro BIND.
	PersonaDebian = ChaosPersona{Version: "9.16.1-Debian"}
	// PersonaPowerDNS is PowerDNS Recursor.
	PersonaPowerDNS = ChaosPersona{Version: "PowerDNS Recursor 4.1.11", Identity: "recursor"}
	// PersonaBindBare is a BIND that reveals only its number.
	PersonaBindBare = ChaosPersona{Version: "9.16.15"}
	// PersonaWindows is a Windows Server DNS.
	PersonaWindows = ChaosPersona{Version: "Windows NS"}
	// PersonaMicrosoft is another Windows DNS variant.
	PersonaMicrosoft = ChaosPersona{Version: "Microsoft"}
	// PersonaQ9 is the string one CPE returned that mimics Quad9 backends.
	PersonaQ9 = ChaosPersona{Version: "Q9-P-7.5"}
	// PersonaNew, PersonaUnknown, PersonaNone, PersonaHuuh are the
	// hand-edited oddballs of Table 5.
	PersonaNew     = ChaosPersona{Version: "new"}
	PersonaUnknown = ChaosPersona{Version: "unknown"}
	PersonaNone    = ChaosPersona{Version: "none"}
	PersonaHuuh    = ChaosPersona{Version: "huuh?"}
	// PersonaSilent answers nothing: NOTIMP to every debugging query.
	PersonaSilent = ChaosPersona{}
	// PersonaNXDomain refuses debugging queries with NXDOMAIN, a behavior
	// the paper observed on some CPE (Table 3, probe 11992).
	PersonaNXDomain = ChaosPersona{
		VersionRCode:  dnswire.RCodeNameError,
		IdentityRCode: dnswire.RCodeNameError,
	}
)
