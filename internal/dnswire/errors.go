package dnswire

import "errors"

// Codec errors. Unpack functions wrap these with positional context where
// useful; callers test them with errors.Is.
var (
	// ErrShortMessage means the buffer ended before a fixed-size field
	// or counted section could be read.
	ErrShortMessage = errors.New("dnswire: message too short")

	// ErrNameTooLong means an encoded or decoded domain name exceeds the
	// 255-octet limit of RFC 1035 §3.1.
	ErrNameTooLong = errors.New("dnswire: name exceeds 255 octets")

	// ErrLabelTooLong means a single label exceeds 63 octets.
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")

	// ErrCompressionLoop means compression pointers form a cycle or point
	// forward, which RFC 1035 forbids.
	ErrCompressionLoop = errors.New("dnswire: compression pointer loop")

	// ErrBadPointer means a compression pointer refers outside the message.
	ErrBadPointer = errors.New("dnswire: compression pointer out of range")

	// ErrBadRData means a resource record's RDATA did not match its
	// declared RDLENGTH or its type-specific layout.
	ErrBadRData = errors.New("dnswire: malformed rdata")

	// ErrTrailingBytes means bytes remained after all counted sections
	// were consumed. Strict parsers reject such messages.
	ErrTrailingBytes = errors.New("dnswire: trailing bytes after message")

	// ErrEmptyName means a name contained an empty non-root label,
	// e.g. "a..b".
	ErrEmptyName = errors.New("dnswire: empty label in name")

	// ErrDotInLabel means a decoded label contains a '.' octet. Name
	// holds unescaped presentation text, so such a label has no faithful
	// Name: it would re-encode as two labels, or fail to encode at all.
	ErrDotInLabel = errors.New("dnswire: label contains a '.' octet")

	// ErrTXTTooLong means a TXT character-string exceeds 255 octets.
	ErrTXTTooLong = errors.New("dnswire: txt string exceeds 255 octets")
)
