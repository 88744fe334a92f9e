package dnswire

import (
	"encoding/binary"
	"fmt"
)

// DNSSEC resource record types (RFC 4034).
const (
	TypeDS     Type = 43
	TypeRRSIG  Type = 46
	TypeDNSKEY Type = 48
)

// DNSSEC algorithm numbers.
const (
	// AlgoEd25519 is Ed25519 (RFC 8080), the algorithm the simulated
	// zones sign with — small keys, stdlib support.
	AlgoEd25519 uint8 = 15
)

// DNSKEY flags.
const (
	// DNSKEYFlagZone marks a zone key.
	DNSKEYFlagZone uint16 = 0x0100
	// DNSKEYFlagSEP marks a key-signing key (secure entry point).
	DNSKEYFlagSEP uint16 = 0x0001
)

// DNSKEYRData is a DNSKEY record body (RFC 4034 §2).
type DNSKEYRData struct {
	Flags     uint16
	Protocol  uint8 // always 3
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEYRData) Type() Type { return TypeDNSKEY }

func (r DNSKEYRData) packRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.Flags)
	buf = append(buf, r.Protocol, r.Algorithm)
	return append(buf, r.PublicKey...), nil
}

func (r DNSKEYRData) String() string {
	return fmt.Sprintf("%d %d %d (%d-byte key)", r.Flags, r.Protocol, r.Algorithm, len(r.PublicKey))
}

// KeyTag computes the RFC 4034 Appendix B key tag over the RDATA.
func (r DNSKEYRData) KeyTag() uint16 {
	rdata, _ := r.packRData(nil)
	var acc uint32
	for i, b := range rdata {
		if i&1 == 1 {
			acc += uint32(b)
		} else {
			acc += uint32(b) << 8
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc & 0xFFFF)
}

// RRSIGRData is an RRSIG record body (RFC 4034 §3).
type RRSIGRData struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

// Type implements RData.
func (RRSIGRData) Type() Type { return TypeRRSIG }

func (r RRSIGRData) packRData(buf []byte) ([]byte, error) {
	var err error
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.TypeCovered))
	buf = append(buf, r.Algorithm, r.Labels)
	buf = binary.BigEndian.AppendUint32(buf, r.OrigTTL)
	buf = binary.BigEndian.AppendUint32(buf, r.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, r.Inception)
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	// Signer name is never compressed (RFC 4034 §3.1.7) and is
	// lower-cased into canonical form.
	if buf, err = packName(buf, r.SignerName.Canonical(), nil); err != nil {
		return buf, err
	}
	return append(buf, r.Signature...), nil
}

// PackPresig packs the RDATA with an empty signature — the prefix of
// the data a signer signs (RFC 4034 §3.1.8.1).
func (r RRSIGRData) PackPresig() ([]byte, error) {
	presig := r
	presig.Signature = nil
	return presig.packRData(nil)
}

func (r RRSIGRData) String() string {
	return fmt.Sprintf("%s %d %d %d sig-by %s. tag=%d (%d-byte sig)",
		r.TypeCovered, r.Algorithm, r.Labels, r.OrigTTL, r.SignerName, r.KeyTag, len(r.Signature))
}

// DSRData is a delegation-signer record body (RFC 4034 §5).
type DSRData struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8 // 2 = SHA-256
	Digest     []byte
}

// Type implements RData.
func (DSRData) Type() Type { return TypeDS }

func (r DSRData) packRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	buf = append(buf, r.Algorithm, r.DigestType)
	return append(buf, r.Digest...), nil
}

func (r DSRData) String() string {
	return fmt.Sprintf("%d %d %d %x", r.KeyTag, r.Algorithm, r.DigestType, r.Digest)
}

// checkDNSSECRData validates the DNSSEC types inside checkRData.
func checkDNSSECRData(msg []byte, off, rdlen int, typ Type) error {
	switch typ {
	case TypeDNSKEY, TypeDS:
		if rdlen < 4 {
			return fmt.Errorf("%w: %s rdlength %d", ErrBadRData, typ, rdlen)
		}
	case TypeRRSIG:
		if rdlen < 18 {
			return fmt.Errorf("%w: RRSIG rdlength %d", ErrBadRData, rdlen)
		}
		end, err := skipName(msg, off+18)
		if err != nil {
			return err
		}
		if end > off+rdlen {
			return fmt.Errorf("%w: RRSIG signer overruns rdata", ErrBadRData)
		}
	}
	return nil
}

// dnssecRData materializes the DNSSEC types inside decoder.rdata.
func (d *decoder) dnssecRData(off, rdlen int, typ Type) RData {
	body := d.msg[off : off+rdlen]
	switch typ {
	case TypeDNSKEY:
		return DNSKEYRData{
			Flags:     binary.BigEndian.Uint16(body[0:2]),
			Protocol:  body[2],
			Algorithm: body[3],
			PublicKey: append([]byte(nil), body[4:]...),
		}
	case TypeDS:
		return DSRData{
			KeyTag:     binary.BigEndian.Uint16(body[0:2]),
			Algorithm:  body[2],
			DigestType: body[3],
			Digest:     append([]byte(nil), body[4:]...),
		}
	default: // TypeRRSIG
		signer, end := d.name(off + 18)
		return RRSIGRData{
			TypeCovered: Type(binary.BigEndian.Uint16(body[0:2])),
			Algorithm:   body[2],
			Labels:      body[3],
			OrigTTL:     binary.BigEndian.Uint32(body[4:8]),
			Expiration:  binary.BigEndian.Uint32(body[8:12]),
			Inception:   binary.BigEndian.Uint32(body[12:16]),
			KeyTag:      binary.BigEndian.Uint16(body[16:18]),
			SignerName:  signer,
			Signature:   append([]byte(nil), d.msg[end:off+rdlen]...),
		}
	}
}

// EDNS0 support: the OPT pseudo-record's class carries the UDP payload
// size and the top bit of its TTL is the DO ("DNSSEC OK") flag
// (RFC 6891, RFC 3225).

// ednsDOBit is the DO flag inside the OPT TTL field.
const ednsDOBit uint32 = 1 << 15

// SetEDNS attaches an OPT record advertising size and the DO bit.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	var ttl uint32
	if do {
		ttl = ednsDOBit
	}
	// Replace any existing OPT.
	m.RemoveEDNS()
	m.Additional = append(m.Additional, Record{
		Name:  "",
		Class: Class(udpSize),
		TTL:   ttl,
		Data:  OPTRData{},
	})
}

// RemoveEDNS strips OPT records.
func (m *Message) RemoveEDNS() {
	out := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type() != TypeOPT {
			out = append(out, rr)
		}
	}
	m.Additional = out
}

// DO reports whether the message requests DNSSEC records.
func (m *Message) DO() bool {
	for _, rr := range m.Additional {
		if rr.Type() == TypeOPT && rr.TTL&ednsDOBit != 0 {
			return true
		}
	}
	return false
}
