package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// runF2 regenerates Figure 2: it verifies the exact bit layout and the
// header overhead across payload sizes, and fails unless every size
// round-trips with each field at its Figure 2 bit offset.
func runF2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F2",
		Title:   "Data message format (8-bit header, 32-bit StreamID, 16-bit seq, 16-bit size, opaque payload)",
		Claim:   "Figure 2 bit offsets 0/8/40/56/72; checksums present but elided",
		Columns: []string{"payload B", "frame B", "overhead %", "round-trip ok"},
	}
	payloads := []int{0, 16, 64, 256, 4096, wire.MaxPayload}
	if cfg.Quick {
		payloads = []int{0, 16, 256}
	}
	for _, p := range payloads {
		msg := wire.Message{
			Flags:   wire.FlagLocationAware,
			Stream:  wire.MustStreamID(123456, 7),
			Seq:     4242,
			Payload: make([]byte, p),
		}
		for i := range msg.Payload {
			msg.Payload[i] = byte(i*7 + 1)
		}
		frame, err := msg.Encode()
		if err != nil {
			return nil, err
		}
		overhead := float64(len(frame)-p) / float64(len(frame)) * 100

		got, _, err := wire.DecodeMessage(frame)
		ok := err == nil && got.Flags == msg.Flags && got.Stream == msg.Stream && got.Seq == msg.Seq &&
			bytes.Equal(got.Payload, msg.Payload) && atFigure2Offsets(frame, &msg)
		t.addRow(p, len(frame), overhead, ok)
		if !ok {
			return t, fmt.Errorf("F2: a %d-byte payload does not round-trip at the Figure 2 offsets", p)
		}
	}
	t.Notes = append(t.Notes, "fixed header is 9 bytes (72 bits) exactly as Figure 2; +2-byte Fletcher-16 trailer")
	return t, nil
}

// atFigure2Offsets reports whether frame holds m's fields where Figure 2
// puts them: the 8-bit header (version and flags) at bit 0, the 32-bit
// StreamID at bit 8, the 16-bit sequence at bit 40, the 16-bit payload
// size at bit 56 and the payload from bit 72.
func atFigure2Offsets(frame []byte, m *wire.Message) bool {
	const header, stream, seq, size, payload = 0 / 8, 8 / 8, 40 / 8, 56 / 8, 72 / 8
	return len(frame) >= payload+len(m.Payload) &&
		frame[header] == byte(wire.Version<<6)|byte(m.Flags) &&
		binary.BigEndian.Uint32(frame[stream:]) == uint32(m.Stream) &&
		binary.BigEndian.Uint16(frame[seq:]) == uint16(m.Seq) &&
		int(binary.BigEndian.Uint16(frame[size:])) == len(m.Payload) &&
		bytes.Equal(frame[payload:payload+len(m.Payload)], m.Payload)
}

// runC1 verifies the §1 capacity sentence limit by limit, exercising the
// boundary value of each. It fails unless every boundary round-trips,
// every value past a limit is rejected (or, for the stream index and the
// sequence, cannot be represented), and each implemented bound is the
// paper's: 2^24 sensors, 2^8 streams, 2^16 sequences, 2^16−1 payload bytes.
func runC1(Config) (*Table, error) {
	t := &Table{
		ID:      "C1",
		Title:   "Capacity claims",
		Claim:   "“supports up to 16.7M sensors, 256 internal-streams/sensor, 64K sequence counts and payloads of 64K bytes”",
		Columns: []string{"dimension", "paper claim", "implemented", "boundary round-trip"},
	}
	// 16.7M sensors.
	maxSensorMsg := wire.Message{Stream: wire.MustStreamID(wire.MaxSensorID, 0)}
	ok1 := roundTrips(&maxSensorMsg)
	_, errOver := wire.NewStreamID(wire.MaxSensorID+1, 0)
	t.addRow("sensors", "16.7M", fmt.Sprintf("%d (2^24)", wire.MaxSensorID+1),
		fmt.Sprintf("id %d ok=%v, %d rejected=%v", wire.MaxSensorID, ok1, wire.MaxSensorID+1, errOver != nil))
	// 256 streams/sensor.
	maxIndexMsg := wire.Message{Stream: wire.MustStreamID(1, wire.MaxStreamIndex)}
	okIndex := roundTrips(&maxIndexMsg)
	t.addRow("streams/sensor", "256", fmt.Sprintf("%d (2^8)", wire.MaxStreamIndex+1),
		fmt.Sprintf("index %d ok=%v", wire.MaxStreamIndex, okIndex))
	// 64K sequence counts.
	wrapMsg := wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 65535}
	okSeq := roundTrips(&wrapMsg)
	serialOK := wire.Seq(65535).Less(0) && wire.Seq(65535).Next() == 0
	t.addRow("sequence counts", "64K", fmt.Sprintf("%d (2^16)", wire.SeqCount),
		fmt.Sprintf("seq 65535 ok=%v, serial wrap ok=%v", okSeq, serialOK))
	// 64K payloads.
	maxPayloadMsg := wire.Message{Stream: wire.MustStreamID(1, 0), Payload: make([]byte, wire.MaxPayload)}
	over := wire.Message{Stream: wire.MustStreamID(1, 0), Payload: make([]byte, wire.MaxPayload+1)}
	_, errPayload := over.Encode()
	okPayload := roundTrips(&maxPayloadMsg)
	t.addRow("payload bytes", "64K", fmt.Sprintf("%d (2^16-1)", wire.MaxPayload),
		fmt.Sprintf("%d B ok=%v, %d rejected=%v", wire.MaxPayload, okPayload, wire.MaxPayload+1, errPayload != nil))

	// One past the largest stream index and sequence wraps to 0: their
	// wire types cannot carry an over-limit value.
	pastIndex, pastSeq := wire.StreamIndex(wire.MaxStreamIndex), wire.Seq(wire.SeqCount-1)
	pastIndex++
	pastSeq++
	for _, c := range []struct {
		claim string
		holds bool
	}{
		{"2^24 sensors", wire.MaxSensorID+1 == 1<<24 && ok1 && errOver != nil},
		{"2^8 streams/sensor", wire.MaxStreamIndex+1 == 1<<8 && okIndex && pastIndex == 0},
		{"2^16 sequence counts", wire.SeqCount == 1<<16 && okSeq && serialOK && pastSeq == 0},
		{"2^16-1 payload bytes", wire.MaxPayload == 1<<16-1 && okPayload && errPayload != nil},
	} {
		if !c.holds {
			return t, fmt.Errorf("C1: the %s bound does not hold", c.claim)
		}
	}
	return t, nil
}

func roundTrips(m *wire.Message) bool {
	frame, err := m.Encode()
	if err != nil {
		return false
	}
	got, n, err := wire.DecodeMessage(frame)
	return err == nil && n == len(frame) && got.Stream == m.Stream && got.Seq == m.Seq &&
		len(got.Payload) == len(m.Payload)
}
