package experiments

import (
	"fmt"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// runF2 regenerates Figure 2: it verifies the exact bit layout and the
// header overhead across payload sizes.
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
		frame, err := msg.Encode()
		if err != nil {
			return nil, err
		}
		overhead := float64(len(frame)-p) / float64(len(frame)) * 100

		got, _, err := wire.DecodeMessage(frame)
		ok := err == nil && got.Stream == msg.Stream && got.Seq == msg.Seq && len(got.Payload) == p
		t.AddRow(p, len(frame), overhead, ok)
	}
	t.Notes = append(t.Notes, "fixed header is 9 bytes (72 bits) exactly as Figure 2; +2-byte Fletcher-16 trailer")
	return t, nil
}

// runC1 verifies the §1 capacity sentence limit by limit, exercising the
// boundary value of each.
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
	t.AddRow("sensors", "16.7M", fmt.Sprintf("%d (2^24)", wire.MaxSensorID+1),
		fmt.Sprintf("id %d ok=%v, %d rejected=%v", wire.MaxSensorID, ok1, wire.MaxSensorID+1, errOver != nil))
	// 256 streams/sensor.
	maxIndexMsg := wire.Message{Stream: wire.MustStreamID(1, wire.MaxStreamIndex)}
	t.AddRow("streams/sensor", "256", fmt.Sprintf("%d (2^8)", wire.MaxStreamIndex+1),
		fmt.Sprintf("index %d ok=%v", wire.MaxStreamIndex, roundTrips(&maxIndexMsg)))
	// 64K sequence counts.
	wrapMsg := wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 65535}
	serialOK := wire.Seq(65535).Less(0) && wire.Seq(65535).Next() == 0
	t.AddRow("sequence counts", "64K", fmt.Sprintf("%d (2^16)", wire.SeqCount),
		fmt.Sprintf("seq 65535 ok=%v, serial wrap ok=%v", roundTrips(&wrapMsg), serialOK))
	// 64K payloads.
	maxPayloadMsg := wire.Message{Stream: wire.MustStreamID(1, 0), Payload: make([]byte, wire.MaxPayload)}
	over := wire.Message{Stream: wire.MustStreamID(1, 0), Payload: make([]byte, wire.MaxPayload+1)}
	_, errPayload := over.Encode()
	t.AddRow("payload bytes", "64K", fmt.Sprintf("%d (2^16-1)", wire.MaxPayload),
		fmt.Sprintf("%d B ok=%v, %d rejected=%v", wire.MaxPayload, roundTrips(&maxPayloadMsg), wire.MaxPayload+1, errPayload != nil))
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
