package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestFigure2Layout pins the exact bit offsets of Figure 2: message header
// at bit 0, StreamID at bit 8, sequence at bit 40, payload size at bit 56
// and the payload from bit 72.
func TestFigure2Layout(t *testing.T) {
	m := Message{
		Stream:  MustStreamID(0xABCDEF, 0x12),
		Seq:     0x3456,
		Payload: []byte{0xDE, 0xAD},
	}
	frame, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if frame[0]>>6 != Version {
		t.Errorf("version bits = %d, want %d", frame[0]>>6, Version)
	}
	if got := binary.BigEndian.Uint32(frame[1:5]); got != 0xABCDEF12 {
		t.Errorf("StreamID at bit 8 = %#08x, want 0xABCDEF12", got)
	}
	if got := binary.BigEndian.Uint16(frame[5:7]); got != 0x3456 {
		t.Errorf("sequence at bit 40 = %#04x, want 0x3456", got)
	}
	if got := binary.BigEndian.Uint16(frame[7:9]); got != 2 {
		t.Errorf("payload size at bit 56 = %d, want 2", got)
	}
	if !bytes.Equal(frame[9:11], []byte{0xDE, 0xAD}) {
		t.Errorf("payload at bit 72 = % x, want de ad", frame[9:11])
	}
	if len(frame) != HeaderSize+2+ChecksumSize {
		t.Errorf("frame length = %d, want %d", len(frame), HeaderSize+2+ChecksumSize)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
	}{
		{"empty payload", Message{Stream: MustStreamID(1, 1), Seq: 1}},
		{"basic", Message{Stream: MustStreamID(42, 7), Seq: 100, Payload: []byte("hello")}},
		{"with ack", Message{Flags: FlagUpdateAck, Stream: MustStreamID(9, 0), Seq: 65535, AckID: 0xBEEF, Payload: []byte{1}}},
		{"relayed", Message{Flags: FlagRelayed, Stream: MustStreamID(8, 1), Seq: 2, HopCount: 3, Payload: []byte{2}}},
		{"fused", Message{Flags: FlagFused, Stream: MustStreamID(7, 2), Seq: 3, FusedCount: 5, Payload: []byte{3}}},
		{"encrypted locaware", Message{Flags: FlagEncrypted | FlagLocationAware, Stream: MustStreamID(6, 3), Seq: 4, Payload: []byte{4, 5, 6}}},
		{"all extensions", Message{
			Flags:  FlagUpdateAck | FlagRelayed | FlagFused | FlagEncrypted | FlagLocationAware,
			Stream: MustStreamID(MaxSensorID, MaxStreamIndex), Seq: 12345,
			AckID: 1, HopCount: 2, FusedCount: 3, Payload: bytes.Repeat([]byte{0xAA}, 100),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := tt.msg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) != tt.msg.EncodedSize() {
				t.Errorf("EncodedSize = %d, actual %d", tt.msg.EncodedSize(), len(frame))
			}
			got, n, err := DecodeMessage(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frame) {
				t.Errorf("consumed %d, want %d", n, len(frame))
			}
			if got.Flags != tt.msg.Flags || got.Stream != tt.msg.Stream || got.Seq != tt.msg.Seq ||
				got.AckID != tt.msg.AckID || got.HopCount != tt.msg.HopCount || got.FusedCount != tt.msg.FusedCount {
				t.Errorf("fields mismatch: got %+v, want %+v", got, tt.msg)
			}
			if !bytes.Equal(got.Payload, tt.msg.Payload) {
				t.Errorf("payload mismatch: got % x, want % x", got.Payload, tt.msg.Payload)
			}
		})
	}
}

func TestMessageMaxPayload(t *testing.T) {
	m := Message{Stream: MustStreamID(1, 0), Payload: make([]byte, MaxPayload)}
	frame, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != MaxPayload {
		t.Fatalf("payload length = %d, want %d", len(got.Payload), MaxPayload)
	}
}

func TestMessagePayloadTooLarge(t *testing.T) {
	m := Message{Stream: MustStreamID(1, 0), Payload: make([]byte, MaxPayload+1)}
	if _, err := m.Encode(); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err = %v, want ErrPayloadSize", err)
	}
}

func TestMessageReservedFlagRejected(t *testing.T) {
	m := Message{Flags: flagReserved, Stream: MustStreamID(1, 0)}
	if _, err := m.Encode(); !errors.Is(err, ErrReservedFlags) {
		t.Fatalf("encode err = %v, want ErrReservedFlags", err)
	}
	// And on decode: craft a frame with the reserved bit set.
	good, err := (&Message{Stream: MustStreamID(1, 0)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	good[0] |= byte(flagReserved)
	// Fix the checksum so only the reserved bit is at fault.
	body := good[:len(good)-ChecksumSize]
	binary.BigEndian.PutUint16(good[len(good)-ChecksumSize:], Fletcher16(body))
	if _, _, err := DecodeMessage(good); !errors.Is(err, ErrReservedFlags) {
		t.Fatalf("decode err = %v, want ErrReservedFlags", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := (&Message{Stream: MustStreamID(5, 1), Seq: 9, Payload: []byte("xyz")}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated short", func(t *testing.T) {
		if _, _, err := DecodeMessage(valid[:5]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := DecodeMessage(valid[:len(valid)-3]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0] = (Version + 1) << 6
		if _, _, err := DecodeMessage(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("corrupt payload byte", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[10] ^= 0xFF
		if _, _, err := DecodeMessage(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("corrupt checksum itself", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[len(bad)-1] ^= 0x01
		if _, _, err := DecodeMessage(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated ack extension", func(t *testing.T) {
		m := Message{Flags: FlagUpdateAck, Stream: MustStreamID(1, 0), AckID: 7}
		frame, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeMessage(frame[:10]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
}

func TestDecodeConsumesExactFrameFromStream(t *testing.T) {
	// Two back-to-back frames in one buffer must decode independently.
	m1 := Message{Stream: MustStreamID(1, 1), Seq: 1, Payload: []byte("first")}
	m2 := Message{Stream: MustStreamID(2, 2), Seq: 2, Payload: []byte("second!")}
	buf, err := m1.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = m2.AppendEncode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got1, n1, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := DecodeMessage(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) {
		t.Errorf("consumed %d+%d, want %d", n1, n2, len(buf))
	}
	if string(got1.Payload) != "first" || string(got2.Payload) != "second!" {
		t.Errorf("payloads %q, %q", got1.Payload, got2.Payload)
	}
}

func TestDecodedPayloadIsACopy(t *testing.T) {
	m := Message{Stream: MustStreamID(1, 0), Payload: []byte("immutable")}
	frame, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[9] ^= 0xFF // clobber the buffer after decode
	if string(got.Payload) != "immutable" {
		t.Error("decoded payload aliases the input buffer")
	}
}

// Property: encode→decode is the identity for all valid messages.
func TestMessageRoundTripProperty(t *testing.T) {
	f := func(sensor uint32, index, flagBits uint8, seq, ackID uint16, hop, fused uint8, payload []byte) bool {
		flags := Flags(flagBits) & (FlagUpdateAck | FlagRelayed | FlagFused | FlagEncrypted | FlagLocationAware)
		m := Message{
			Flags:   flags,
			Stream:  MustStreamID(SensorID(sensor)&MaxSensorID, StreamIndex(index)),
			Seq:     Seq(seq),
			Payload: payload,
		}
		if flags.Has(FlagUpdateAck) {
			m.AckID = ackID
		}
		if flags.Has(FlagRelayed) {
			m.HopCount = hop
		}
		if flags.Has(FlagFused) {
			m.FusedCount = fused
		}
		frame, err := m.Encode()
		if err != nil {
			return false
		}
		got, n, err := DecodeMessage(frame)
		if err != nil || n != len(frame) {
			return false
		}
		return got.Flags == m.Flags && got.Stream == m.Stream && got.Seq == m.Seq &&
			got.AckID == m.AckID && got.HopCount == m.HopCount && got.FusedCount == m.FusedCount &&
			bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single byte of a frame is always detected — the
// decode either fails or, when the flip hits version/reserved/length
// fields, reports a structural error; it never silently yields a different
// valid message.
func TestSingleByteCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := Message{
		Flags:  FlagUpdateAck,
		Stream: MustStreamID(123456, 9),
		Seq:    4242,
		AckID:  77,
	}
	m.Payload = make([]byte, 64)
	for i := range m.Payload {
		m.Payload[i] = byte(rng.UintN(256))
	}
	frame, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(frame); pos++ {
		for trial := 0; trial < 3; trial++ {
			bad := bytes.Clone(frame)
			flip := byte(1 + rng.UintN(255))
			bad[pos] ^= flip
			got, _, err := DecodeMessage(bad)
			if err != nil {
				continue // detected: good
			}
			// Undetected decode must at least differ from silent acceptance
			// of the original message — that would mean corruption passed
			// completely unnoticed.
			if got.Stream == m.Stream && got.Seq == m.Seq && bytes.Equal(got.Payload, m.Payload) && got.AckID == m.AckID {
				t.Fatalf("flip of byte %d (xor %#02x) was silently accepted", pos, flip)
			}
		}
	}
}

func TestFlagsString(t *testing.T) {
	tests := []struct {
		f    Flags
		want string
	}{
		{0, "none"},
		{FlagUpdateAck, "ack"},
		{FlagUpdateAck | FlagRelayed, "ack|relayed"},
		{FlagEncrypted | FlagLocationAware, "encrypted|locaware"},
		{FlagUpdateAck | FlagRelayed | FlagFused | FlagEncrypted | FlagLocationAware,
			"ack|relayed|fused|encrypted|locaware"},
		// The internal reserved bit is not part of the public vocabulary
		// and must never leak into user-facing output.
		{flagReserved, "none"},
		{FlagUpdateAck | flagReserved, "ack"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("Flags(%d).String() = %q, want %q", tt.f, got, tt.want)
		}
	}
}

func TestFlagsStringAllocs(t *testing.T) {
	// All five flags: the longest output, which must still fit the
	// builder's preallocation. One allocation: the returned string itself
	// (strings.Builder's buffer becomes the string). The per-call name
	// table and join scratch of the old implementation are gone.
	f := FlagUpdateAck | FlagRelayed | FlagFused | FlagEncrypted | FlagLocationAware
	if got := testing.AllocsPerRun(100, func() { _ = f.String() }); got > 1 {
		t.Errorf("Flags.String allocates %v per call, want <= 1", got)
	}
}

// TestDecodeMessageBorrowed: borrow mode aliases the frame instead of
// copying, never allocates, and still validates the checksum.
func TestDecodeMessageBorrowed(t *testing.T) {
	msg := Message{Stream: MustStreamID(5, 1), Seq: 3, Payload: []byte("borrowed-payload")}
	frame, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	n, err := DecodeMessageBorrowed(frame, &m)
	if err != nil || n != len(frame) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if string(m.Payload) != "borrowed-payload" {
		t.Fatalf("payload = %q", m.Payload)
	}
	if &m.Payload[0] != &frame[HeaderSize] {
		t.Error("borrowed payload does not alias the frame")
	}
	// The alias is capacity-clamped: appending to it must not scribble
	// over the checksum trailer.
	if cap(m.Payload) != len(m.Payload) {
		t.Errorf("borrowed payload capacity %d leaks past its length %d", cap(m.Payload), len(m.Payload))
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := DecodeMessageBorrowed(frame, &m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeMessageBorrowed allocates %v per call, want 0", got)
	}
	// Corruption is still caught in borrow mode.
	frame[len(frame)-1] ^= 0xFF
	if _, err := DecodeMessageBorrowed(frame, &m); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame: err = %v, want ErrChecksum", err)
	}
}

func TestFletcher16KnownVectors(t *testing.T) {
	tests := []struct {
		in   string
		want uint16
	}{
		{"abcde", 0xC8F0},
		{"abcdef", 0x2057},
		{"abcdefgh", 0x0627},
	}
	for _, tt := range tests {
		if got := Fletcher16([]byte(tt.in)); got != tt.want {
			t.Errorf("Fletcher16(%q) = %#04x, want %#04x", tt.in, got, tt.want)
		}
	}
}

func TestFletcher16LargeInputMatchesNaive(t *testing.T) {
	// The block-reduction optimisation must agree with the naive definition.
	naive := func(data []byte) uint16 {
		var s1, s2 uint32
		for _, b := range data {
			s1 = (s1 + uint32(b)) % 255
			s2 = (s2 + s1) % 255
		}
		return uint16(s2<<8 | s1)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 5801, 5802, 5803, 20000, 70000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		if got, want := Fletcher16(data), naive(data); got != want {
			t.Errorf("n=%d: Fletcher16 = %#04x, naive = %#04x", n, got, want)
		}
	}
}
