// Package dnswire implements the DNS wire format (RFC 1035 and friends)
// from scratch on top of the standard library only.
//
// It supports everything the interception-localization technique needs:
// the CHAOS class used by id.server / version.bind debugging queries
// (RFC 4892), TXT records, address records for both IP families, name
// compression on both the encode and decode paths, and EDNS0 OPT
// pseudo-records. Messages packed by this package are byte-for-byte valid
// DNS packets; the simulator and the real-network client share this codec.
package dnswire

import "strconv"

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Resource record types used by the detector and its substrates.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone:   "NONE",
	TypeA:      "A",
	TypeNS:     "NS",
	TypeCNAME:  "CNAME",
	TypeSOA:    "SOA",
	TypePTR:    "PTR",
	TypeMX:     "MX",
	TypeTXT:    "TXT",
	TypeAAAA:   "AAAA",
	TypeOPT:    "OPT",
	TypeANY:    "ANY",
	TypeDS:     "DS",
	TypeRRSIG:  "RRSIG",
	TypeDNSKEY: "DNSKEY",
}

// String returns the conventional mnemonic, or TYPEn per RFC 3597 for
// unknown types.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "TYPE" + strconv.Itoa(int(t))
}

// Class is a DNS class. The interception technique leans on the CHAOS
// class, which public resolvers use for server-identity debugging queries.
type Class uint16

// DNS classes.
const (
	ClassINET  Class = 1
	ClassCHAOS Class = 3
	ClassHS    Class = 4
	ClassNONE  Class = 254
	ClassANY   Class = 255
)

var classNames = map[Class]string{
	ClassINET:  "IN",
	ClassCHAOS: "CH",
	ClassHS:    "HS",
	ClassNONE:  "NONE",
	ClassANY:   "ANY",
}

// String returns the conventional mnemonic, or CLASSn for unknown classes.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "CLASS" + strconv.Itoa(int(c))
}

// Opcode is the 4-bit DNS operation code.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeIQuery Opcode = 1
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

var opcodeNames = map[Opcode]string{
	OpcodeQuery:  "QUERY",
	OpcodeIQuery: "IQUERY",
	OpcodeStatus: "STATUS",
	OpcodeNotify: "NOTIFY",
	OpcodeUpdate: "UPDATE",
}

// String returns the conventional mnemonic.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return "OPCODE" + strconv.Itoa(int(o))
}

// RCode is the DNS response code. The paper's transparency analysis
// (§4.1.2) distinguishes NOERROR answers from deliberate SERVFAIL /
// NOTIMP / REFUSED blocking by alternate resolvers.
type RCode uint8

// Response codes.
const (
	RCodeSuccess        RCode = 0 // NOERROR
	RCodeFormatError    RCode = 1 // FORMERR
	RCodeServerFailure  RCode = 2 // SERVFAIL
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4 // NOTIMP
	RCodeRefused        RCode = 5 // REFUSED
)

var rcodeNames = map[RCode]string{
	RCodeSuccess:        "NOERROR",
	RCodeFormatError:    "FORMERR",
	RCodeServerFailure:  "SERVFAIL",
	RCodeNameError:      "NXDOMAIN",
	RCodeNotImplemented: "NOTIMP",
	RCodeRefused:        "REFUSED",
}

// String returns the conventional mnemonic.
func (r RCode) String() string {
	if s, ok := rcodeNames[r]; ok {
		return s
	}
	return "RCODE" + strconv.Itoa(int(r))
}
