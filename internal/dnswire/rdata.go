package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// RData is the typed body of a resource record. Implementations pack
// themselves into wire format; names inside RDATA are packed without
// compression, which is universally interoperable and required for
// unknown types (RFC 3597 §4).
type RData interface {
	// Type returns the RR type this body belongs to.
	Type() Type
	// packRData appends the wire encoding (without the RDLENGTH prefix).
	packRData(buf []byte) ([]byte, error)
	// String renders the body in presentation-like format.
	String() string
}

// ARData is an IPv4 address record body.
type ARData struct{ Addr netip.Addr }

// Type implements RData.
func (ARData) Type() Type { return TypeA }

func (r ARData) packRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is4() {
		return buf, fmt.Errorf("%w: A record with non-IPv4 address %s", ErrBadRData, r.Addr)
	}
	a := r.Addr.As4()
	return append(buf, a[:]...), nil
}

func (r ARData) String() string { return r.Addr.String() }

// AAAARData is an IPv6 address record body.
type AAAARData struct{ Addr netip.Addr }

// Type implements RData.
func (AAAARData) Type() Type { return TypeAAAA }

func (r AAAARData) packRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is6() || r.Addr.Is4In6() {
		return buf, fmt.Errorf("%w: AAAA record with non-IPv6 address %s", ErrBadRData, r.Addr)
	}
	a := r.Addr.As16()
	return append(buf, a[:]...), nil
}

func (r AAAARData) String() string { return r.Addr.String() }

// TXTRData is a TXT record body: one or more character-strings.
// Location queries (id.server, version.bind, debug.opendns.com) all
// answer with TXT records, so this is the detector's workhorse.
type TXTRData struct{ Strings []string }

// Type implements RData.
func (TXTRData) Type() Type { return TypeTXT }

func (r TXTRData) packRData(buf []byte) ([]byte, error) {
	if len(r.Strings) == 0 {
		// RFC 1035 requires at least one (possibly empty) string.
		return append(buf, 0), nil
	}
	for _, s := range r.Strings {
		if len(s) > 255 {
			return buf, ErrTXTTooLong
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

func (r TXTRData) String() string {
	quoted := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		quoted[i] = `"` + s + `"`
	}
	return strings.Join(quoted, " ")
}

// Joined concatenates the character-strings, the usual way clients
// consume identity answers.
func (r TXTRData) Joined() string { return strings.Join(r.Strings, "") }

// CNAMERData is a canonical-name record body.
type CNAMERData struct{ Target Name }

// Type implements RData.
func (CNAMERData) Type() Type { return TypeCNAME }

func (r CNAMERData) packRData(buf []byte) ([]byte, error) {
	return packName(buf, r.Target, nil)
}

func (r CNAMERData) String() string { return string(r.Target) + "." }

// NSRData is a nameserver record body.
type NSRData struct{ Host Name }

// Type implements RData.
func (NSRData) Type() Type { return TypeNS }

func (r NSRData) packRData(buf []byte) ([]byte, error) {
	return packName(buf, r.Host, nil)
}

func (r NSRData) String() string { return string(r.Host) + "." }

// PTRRData is a pointer record body.
type PTRRData struct{ Target Name }

// Type implements RData.
func (PTRRData) Type() Type { return TypePTR }

func (r PTRRData) packRData(buf []byte) ([]byte, error) {
	return packName(buf, r.Target, nil)
}

func (r PTRRData) String() string { return string(r.Target) + "." }

// MXRData is a mail-exchanger record body.
type MXRData struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MXRData) Type() Type { return TypeMX }

func (r MXRData) packRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.Preference)
	return packName(buf, r.Host, nil)
}

func (r MXRData) String() string { return fmt.Sprintf("%d %s.", r.Preference, r.Host) }

// SOARData is a start-of-authority record body.
type SOARData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOARData) Type() Type { return TypeSOA }

func (r SOARData) packRData(buf []byte) ([]byte, error) {
	var err error
	if buf, err = packName(buf, r.MName, nil); err != nil {
		return buf, err
	}
	if buf, err = packName(buf, r.RName, nil); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint32(buf, r.Serial)
	buf = binary.BigEndian.AppendUint32(buf, r.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, r.Retry)
	buf = binary.BigEndian.AppendUint32(buf, r.Expire)
	buf = binary.BigEndian.AppendUint32(buf, r.Minimum)
	return buf, nil
}

func (r SOARData) String() string {
	return fmt.Sprintf("%s. %s. %d %d %d %d %d",
		r.MName, r.RName, r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

// OPTRData is an EDNS0 OPT pseudo-record body (RFC 6891). Options are
// kept opaque; the simulator only needs UDP payload size negotiation.
type OPTRData struct{ Options []byte }

// Type implements RData.
func (OPTRData) Type() Type { return TypeOPT }

func (r OPTRData) packRData(buf []byte) ([]byte, error) {
	return append(buf, r.Options...), nil
}

func (r OPTRData) String() string { return fmt.Sprintf("OPT(%d bytes)", len(r.Options)) }

// RawRData carries an unrecognized type's RDATA verbatim (RFC 3597).
type RawRData struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (r RawRData) Type() Type { return r.RRType }

func (r RawRData) packRData(buf []byte) ([]byte, error) {
	return append(buf, r.Data...), nil
}

func (r RawRData) String() string { return fmt.Sprintf(`\# %d %x`, len(r.Data), r.Data) }

// checkRData validates the RDATA of one record, which spans
// [off, off+rdlen) of msg (the whole message, since names inside RDATA
// may point back into it). It accepts exactly what decoder.rdata can
// materialize.
func checkRData(msg []byte, off, rdlen int, typ Type) error {
	if off+rdlen > len(msg) {
		return ErrShortMessage
	}
	body := msg[off : off+rdlen]
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return fmt.Errorf("%w: A rdlength %d", ErrBadRData, rdlen)
		}
	case TypeAAAA:
		if rdlen != 16 {
			return fmt.Errorf("%w: AAAA rdlength %d", ErrBadRData, rdlen)
		}
	case TypeTXT:
		for i := 0; i < len(body); {
			l := int(body[i])
			if i+1+l > len(body) {
				return fmt.Errorf("%w: TXT string overruns rdata", ErrBadRData)
			}
			i += 1 + l
		}
		if rdlen == 0 {
			return fmt.Errorf("%w: empty TXT rdata", ErrBadRData)
		}
	case TypeCNAME, TypeNS, TypePTR:
		end, err := skipName(msg, off)
		if err != nil {
			return err
		}
		if end != off+rdlen {
			return fmt.Errorf("%w: %s rdata length mismatch", ErrBadRData, typ)
		}
	case TypeMX:
		if rdlen < 3 {
			return fmt.Errorf("%w: MX rdlength %d", ErrBadRData, rdlen)
		}
		end, err := skipName(msg, off+2)
		if err != nil {
			return err
		}
		if end != off+rdlen {
			return fmt.Errorf("%w: MX rdata length mismatch", ErrBadRData)
		}
	case TypeSOA:
		p, err := skipName(msg, off)
		if err != nil {
			return err
		}
		if p, err = skipName(msg, p); err != nil {
			return err
		}
		if p+20 != off+rdlen {
			return fmt.Errorf("%w: SOA rdata length mismatch", ErrBadRData)
		}
	case TypeDNSKEY, TypeDS, TypeRRSIG:
		return checkDNSSECRData(msg, off, rdlen, typ)
	}
	return nil
}

// rdata materializes the RDATA checkRData accepted. Byte fields are
// copied out of the message; a TXT body becomes one string, and its
// character-strings are substrings of it.
func (d *decoder) rdata(off, rdlen int, typ Type) RData {
	body := d.msg[off : off+rdlen]
	switch typ {
	case TypeA:
		return ARData{Addr: netip.AddrFrom4([4]byte(body))}
	case TypeAAAA:
		return AAAARData{Addr: netip.AddrFrom16([16]byte(body))}
	case TypeTXT:
		all := string(body)
		n := 0
		for i := 0; i < len(all); i += 1 + int(all[i]) {
			n++
		}
		ss := make([]string, n)
		for i, k := 0, 0; i < len(all); k++ {
			l := int(all[i])
			ss[k] = all[i+1 : i+1+l]
			i += 1 + l
		}
		return TXTRData{Strings: ss}
	case TypeCNAME:
		n, _ := d.name(off)
		return CNAMERData{Target: n}
	case TypeNS:
		n, _ := d.name(off)
		return NSRData{Host: n}
	case TypePTR:
		n, _ := d.name(off)
		return PTRRData{Target: n}
	case TypeMX:
		n, _ := d.name(off + 2)
		return MXRData{Preference: binary.BigEndian.Uint16(body[0:2]), Host: n}
	case TypeSOA:
		mname, p := d.name(off)
		rname, p := d.name(p)
		msg := d.msg
		return SOARData{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(msg[p : p+4]),
			Refresh: binary.BigEndian.Uint32(msg[p+4 : p+8]),
			Retry:   binary.BigEndian.Uint32(msg[p+8 : p+12]),
			Expire:  binary.BigEndian.Uint32(msg[p+12 : p+16]),
			Minimum: binary.BigEndian.Uint32(msg[p+16 : p+20]),
		}
	case TypeOPT:
		return OPTRData{Options: append([]byte(nil), body...)}
	case TypeDNSKEY, TypeDS, TypeRRSIG:
		return d.dnssecRData(off, rdlen, typ)
	default:
		return RawRData{RRType: typ, Data: append([]byte(nil), body...)}
	}
}
