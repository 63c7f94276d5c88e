package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Version is the current wire format version, carried in the top two bits
// of the message header byte.
const Version = 1

// Figure 2 layout: the fixed header is 72 bits (9 bytes) — an 8-bit
// message header, a 32-bit StreamID, a 16-bit sequence and a 16-bit
// payload size — followed by the opaque payload. Optional fields flagged
// in the header byte sit between the fixed header and the payload, and a
// Fletcher-16 checksum (present but elided in the paper's figure) closes
// the frame.
const (
	HeaderSize   = 9
	ChecksumSize = 2

	offHeader      = 0 // bit 0
	offStreamID    = 1 // bit 8
	offSeq         = 5 // bit 40
	offPayloadSize = 7 // bit 56
	offPayload     = 9 // bit 72 (when no optional fields are present)
)

// Flags is the 6-bit capability/information field of the message header
// byte. Bits mirror §4.3: “bit-fields which flag additional capabilities
// and information such as the presence of other data fields, and fused or
// relayed data”.
type Flags uint8

const (
	// FlagUpdateAck marks the presence of a 16-bit stream-update-request
	// acknowledgement id — “expected to appear in data messages generated
	// by receive-capable sensors” (§4.3).
	FlagUpdateAck Flags = 1 << iota
	// FlagRelayed marks multi-hop/relayed data (§8) and the presence of an
	// 8-bit hop count.
	FlagRelayed
	// FlagFused marks fused data and the presence of an 8-bit count of
	// fused sources.
	FlagFused
	// FlagEncrypted marks an end-to-end encrypted payload; the middleware
	// treats the payload as opaque either way.
	FlagEncrypted
	// FlagLocationAware advertises that the originating sensor is
	// location-aware (information only, no extra field: the paper
	// deliberately keeps location data out of the message header, §5).
	FlagLocationAware

	// flagReserved must be zero in version 1 frames.
	flagReserved

	flagsMask Flags = 1<<6 - 1
)

// Has reports whether every bit of g is set in f.
func (f Flags) Has(g Flags) bool { return f&g == g }

// flagNames[i] names bit 1<<i. The internal reserved bit is deliberately
// absent: it is not part of the public flag vocabulary and frames carrying
// it never decode, so user-facing output omits it.
var flagNames = [...]string{"ack", "relayed", "fused", "encrypted", "locaware"}

// String lists the set flags, e.g. "ack|relayed".
func (f Flags) String() string {
	f &= flagsMask &^ flagReserved
	if f == 0 {
		return "none"
	}
	var b strings.Builder
	b.Grow(len("ack|relayed|fused|encrypted|locaware")) // the all-flags case
	for i, name := range flagNames {
		if f&(1<<i) != 0 {
			if b.Len() > 0 {
				b.WriteByte('|')
			}
			b.WriteString(name)
		}
	}
	return b.String()
}

// Codec errors.
var (
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrVersion       = errors.New("wire: unsupported version")
	ErrReservedFlags = errors.New("wire: reserved flag bits set")
	ErrChecksum      = errors.New("wire: checksum mismatch")
	ErrPayloadSize   = errors.New("wire: payload exceeds 64K limit")
)

// Message is a decoded Garnet data message (Figure 2). A data stream is a
// sequence of Messages sharing a StreamID, ordered by Seq.
//
// AckID, HopCount and FusedCount are meaningful only when the
// corresponding flag is set.
type Message struct {
	Flags      Flags
	Stream     StreamID
	Seq        Seq
	AckID      uint16 // valid iff Flags.Has(FlagUpdateAck)
	HopCount   uint8  // valid iff Flags.Has(FlagRelayed)
	FusedCount uint8  // valid iff Flags.Has(FlagFused)
	Payload    []byte // opaque to the middleware; nil and empty are equivalent
}

func (m *Message) extSize() int {
	n := 0
	if m.Flags.Has(FlagUpdateAck) {
		n += 2
	}
	if m.Flags.Has(FlagRelayed) {
		n++
	}
	if m.Flags.Has(FlagFused) {
		n++
	}
	return n
}

// EncodedSize returns the number of bytes Encode will produce for m.
func (m *Message) EncodedSize() int {
	return HeaderSize + m.extSize() + len(m.Payload) + ChecksumSize
}

// AppendEncode appends the encoded frame to dst and returns the extended
// slice. It fails if the payload exceeds MaxPayload or reserved flag bits
// are set.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrPayloadSize, len(m.Payload))
	}
	if m.Flags&^flagsMask != 0 || m.Flags.Has(flagReserved) {
		return dst, ErrReservedFlags
	}
	start := len(dst)
	dst = append(dst, byte(Version<<6)|byte(m.Flags))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Stream))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Seq))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Payload)))
	if m.Flags.Has(FlagUpdateAck) {
		dst = binary.BigEndian.AppendUint16(dst, m.AckID)
	}
	if m.Flags.Has(FlagRelayed) {
		dst = append(dst, m.HopCount)
	}
	if m.Flags.Has(FlagFused) {
		dst = append(dst, m.FusedCount)
	}
	dst = append(dst, m.Payload...)
	sum := Fletcher16(dst[start:])
	dst = binary.BigEndian.AppendUint16(dst, sum)
	return dst, nil
}

// Encode returns the encoded frame as a fresh slice.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, m.EncodedSize()))
}

// DecodeMessage decodes one data message from the front of b, returning
// the message, the number of bytes consumed, and any validation error.
// The returned Message owns a copy of the payload, so b may be reused.
func DecodeMessage(b []byte) (Message, int, error) {
	var m Message
	n, err := decodeInto(b, &m, false)
	if err != nil {
		return Message{}, 0, err
	}
	return m, n, nil
}

// DecodeMessageBorrowed decodes one data message from the front of b into
// *m, returning the number of bytes consumed. Unlike DecodeMessage it
// aliases the frame instead of copying: m.Payload points directly into b.
// It never allocates.
//
// Lifetime rule: the message is only valid while b is. A caller that
// reuses or releases the frame buffer (e.g. back to a pool) must first
// either drop the message or detach the payload with an explicit copy;
// handing a borrowed Message to code that retains it (queues, backlogs)
// without detaching corrupts the payload silently.
func DecodeMessageBorrowed(b []byte, m *Message) (int, error) {
	return decodeInto(b, m, true)
}

func decodeInto(b []byte, m *Message, borrow bool) (int, error) {
	if len(b) < HeaderSize+ChecksumSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	hdr := b[offHeader]
	version := hdr >> 6
	if version != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, version, Version)
	}
	flags := Flags(hdr) & flagsMask
	if flags.Has(flagReserved) {
		return 0, ErrReservedFlags
	}
	m.Flags = flags
	m.Stream = StreamID(binary.BigEndian.Uint32(b[offStreamID:]))
	m.Seq = Seq(binary.BigEndian.Uint16(b[offSeq:]))
	m.AckID, m.HopCount, m.FusedCount = 0, 0, 0
	payloadLen := int(binary.BigEndian.Uint16(b[offPayloadSize:]))
	off := HeaderSize
	if flags.Has(FlagUpdateAck) {
		if len(b) < off+2 {
			return 0, ErrTruncated
		}
		m.AckID = binary.BigEndian.Uint16(b[off:])
		off += 2
	}
	if flags.Has(FlagRelayed) {
		if len(b) < off+1 {
			return 0, ErrTruncated
		}
		m.HopCount = b[off]
		off++
	}
	if flags.Has(FlagFused) {
		if len(b) < off+1 {
			return 0, ErrTruncated
		}
		m.FusedCount = b[off]
		off++
	}
	total := off + payloadLen + ChecksumSize
	if len(b) < total {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, total, len(b))
	}
	body := b[:total-ChecksumSize]
	want := binary.BigEndian.Uint16(b[total-ChecksumSize:])
	if got := Fletcher16(body); got != want {
		return 0, fmt.Errorf("%w: computed %#04x, frame carries %#04x", ErrChecksum, got, want)
	}
	switch {
	case payloadLen == 0:
		m.Payload = nil // never retain an alias, even an empty one
	case borrow:
		m.Payload = b[off : off+payloadLen : off+payloadLen]
	default:
		m.Payload = append([]byte(nil), b[off:off+payloadLen]...)
	}
	return total, nil
}
