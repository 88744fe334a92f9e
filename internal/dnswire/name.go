package dnswire

import (
	"bytes"
	"strings"
)

// maxNameWire is the maximum length of an encoded name (RFC 1035 §3.1).
const maxNameWire = 255

// maxLabel is the maximum length of a single label.
const maxLabel = 63

// Name is a fully-qualified domain name in presentation format without a
// trailing dot (the root name is the empty string). Comparison is
// case-insensitive per RFC 1035 §2.3.3; use Canonical for map keys.
// Labels are octets, so case folding maps the ASCII letters A-Z to a-z
// and nothing else (RFC 4343 §3): the name "\u212a.example" (KELVIN
// SIGN) is not "k.example".
type Name string

// Canonical lower-cases the name's ASCII letters for case-insensitive
// comparison. A name with no upper-case letter is returned as is.
func (n Name) Canonical() Name {
	for i := 0; i < len(n); i++ {
		if 'A' <= n[i] && n[i] <= 'Z' {
			b := []byte(n)
			for j := i; j < len(b); j++ {
				b[j] = lowerASCII(b[j])
			}
			return Name(b)
		}
	}
	return n
}

// Equal reports whether two names are equal under DNS case-folding.
func (n Name) Equal(m Name) bool {
	return len(n) == len(m) && equalFoldASCII(string(n), string(m))
}

// Labels splits the name into its labels, most-specific first.
// The root name yields no labels.
func (n Name) Labels() []string {
	if n == "" || n == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// Parent returns the name with its leftmost label removed, and true if a
// label was removed. The root name returns itself and false.
func (n Name) Parent() (Name, bool) {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return "", false
	}
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return "", true
	}
	return Name(s[i+1:]), true
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	nn := string(Name(strings.TrimSuffix(string(n), ".")).Canonical())
	zz := string(Name(strings.TrimSuffix(string(zone), ".")).Canonical())
	if zz == "" {
		return true
	}
	if nn == zz {
		return true
	}
	return strings.HasSuffix(nn, "."+zz)
}

// validateName checks presentation-format constraints before encoding.
// It runs on every name pack, so it scans bytes in place rather than
// splitting into a label slice.
func validateName(n Name) error {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return nil // root
	}
	labelLen := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			labelLen++
			continue
		}
		if labelLen == 0 {
			return ErrEmptyName
		}
		if labelLen > maxLabel {
			return ErrLabelTooLong
		}
		labelLen = 0
	}
	if labelLen == 0 {
		return ErrEmptyName
	}
	if labelLen > maxLabel {
		return ErrLabelTooLong
	}
	// Each label encodes as 1+len bytes (dots become length bytes, plus
	// one leading length byte), then the terminal root byte: len(s)+2.
	if len(s)+2 > maxNameWire {
		return ErrNameTooLong
	}
	return nil
}

// compressor remembers the name suffixes already emitted into one
// message so later occurrences can be replaced by 14-bit pointers
// (RFC 1035 §4.1.4). An entry is the message offset of a label the
// message spells out and the text length of the name from there; a
// suffix matches when it has that length and reads, in the message's
// own bytes, the same under Name.Equal. So names a response copies from
// a query's wire can seed the table as well as names packed from text.
// The first 16 entries live in an inline array, so a compressor on
// PackTo's stack packs a message of ordinary shape without allocating;
// further entries spill into a heap slice. (An entries slice aimed at
// the inline array would send the whole table to the heap: escape
// analysis cannot see that the pointer stays local.)
type compressor struct {
	base   int // buffer offset of the message header; offsets are relative to it
	n      int // entries used in inline
	inline [16]cmpEntry
	spill  []cmpEntry
}

// cmpEntry is one emitted suffix: its message-relative offset and its
// length as presentation text.
type cmpEntry struct {
	off, n uint16
}

// find returns the offset of an emitted suffix equal to s in buf, the
// buffer the message is being packed into.
func (c *compressor) find(buf []byte, s string) (int, bool) {
	msg := buf[c.base:]
	for _, e := range c.inline[:c.n] {
		if int(e.n) == len(s) && nameEqual(msg, int(e.off), Name(s)) {
			return int(e.off), true
		}
	}
	for _, e := range c.spill {
		if int(e.n) == len(s) && nameEqual(msg, int(e.off), Name(s)) {
			return int(e.off), true
		}
	}
	return 0, false
}

// add records a suffix of n text octets as emitted at message offset
// off (< 0x4000).
func (c *compressor) add(n, off int) {
	e := cmpEntry{off: uint16(off), n: uint16(n)}
	if c.n < len(c.inline) {
		c.inline[c.n] = e
		c.n++
		return
	}
	c.spill = append(c.spill, e)
}

// addWire records every label of the uncompressed name at message
// offset off, as packing the name's text with c would have.
func (c *compressor) addWire(msg []byte, off int) {
	n := -1 // text length from off: the labels and the dots between them
	for p := off; msg[p] != 0; p += 1 + int(msg[p]) {
		n += 1 + int(msg[p])
	}
	for ; msg[off] != 0 && off < 0x4000; off += 1 + int(msg[off]) {
		c.add(n, off)
		n -= 1 + int(msg[off])
	}
}

// equalFoldASCII reports whether two equal-length strings match under
// ASCII case folding; bytes outside A-Z and a-z must match exactly.
func equalFoldASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if lowerASCII(a[i]) != lowerASCII(b[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// packName appends the wire encoding of n to buf, using and updating cmp
// for compression. Pass a nil cmp to disable compression: names inside
// RDATA are always packed uncompressed (RFC 3597 §4 forbids compression
// for unknown types, and uncompressed is universally interoperable).
// Neither path allocates.
func packName(buf []byte, n Name, cmp *compressor) ([]byte, error) {
	if err := validateName(n); err != nil {
		return buf, err
	}
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return append(buf, 0), nil
	}
	for pos := 0; ; {
		if cmp != nil {
			if off, ok := cmp.find(buf, s[pos:]); ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf) - cmp.base; off < 0x4000 {
				cmp.add(len(s)-pos, off)
			}
		}
		end := strings.IndexByte(s[pos:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += pos
		}
		buf = append(buf, byte(end-pos))
		buf = append(buf, s[pos:end]...)
		if end == len(s) {
			break
		}
		pos = end + 1
	}
	return append(buf, 0), nil
}

// skipName validates the possibly-compressed name at off within msg and
// returns the offset of the first byte after the name's encoding at its
// original position (after the pointer, if one was followed). It is the
// only place names are checked on the decode path:
//   - labels and pointers must lie inside msg;
//   - pointers must point strictly backwards, at most 127 of them;
//   - the 0x40 and 0x80 label types, never standardized, are rejected;
//   - the encoding, root octet included, is at most 255 octets;
//   - a label must not contain a '.' octet, which Name, holding
//     unescaped presentation text, cannot represent.
//
// The last two rules make every decoded name pass validateName, so
// anything Unpack returns can be packed again.
func skipName(msg []byte, off int) (int, error) {
	wire := 1     // encoded octets, counting the root terminator
	pointers := 0 // pointers followed, to detect loops cheaply
	end := -1     // resume offset after the first pointer
	for {
		if off >= len(msg) {
			return 0, ErrShortMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrShortMessage
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				// Forward or self pointers are malformed and would loop.
				return 0, ErrBadPointer
			}
			pointers++
			if pointers > 127 {
				return 0, ErrCompressionLoop
			}
			off = target
		case b&0xC0 != 0:
			// 0x40 and 0x80 label types were never standardized.
			return 0, ErrBadRData
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return 0, ErrShortMessage
			}
			wire += l + 1
			if wire > maxNameWire {
				return 0, ErrNameTooLong
			}
			if bytes.IndexByte(msg[off+1:off+1+l], '.') >= 0 {
				return 0, ErrDotInLabel
			}
			off += 1 + l
		}
	}
}

// appendName appends the presentation text of the name at off, which
// skipName has validated, and returns the extended slice and the offset
// after the name's encoding at off.
func appendName(dst, msg []byte, off int) ([]byte, int) {
	start, end := len(dst), -1
	for {
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return dst, end
		case b&0xC0 == 0xC0:
			if end < 0 {
				end = off + 2
			}
			off = int(b&0x3F)<<8 | int(msg[off+1])
		default:
			if len(dst) > start {
				dst = append(dst, '.')
			}
			dst = append(dst, msg[off+1:off+1+int(b)]...)
			off += 1 + int(b)
		}
	}
}
