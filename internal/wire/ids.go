// Package wire implements Garnet's on-air formats: the Figure 2
// data-message layout (8-bit message header, 32-bit composite StreamID,
// 16-bit sequence, 16-bit payload size, opaque payload) and the downlink
// control-message format used by the actuation path, together with the
// identifier and sequence-number arithmetic both depend on.
//
// The bit widths reproduce the paper's proof-of-concept exactly, giving
// the published capacities: 16.7M sensors (2^24), 256 internal streams per
// sensor (2^8), 64K sequence counts (2^16) and payloads of up to 64K bytes
// (2^16 - 1).
package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Capacity limits of the wire format, as claimed in §1 of the paper.
const (
	// MaxSensorID is the largest addressable sensor: 2^24-1 (“16.7M sensors”).
	MaxSensorID = 1<<24 - 1
	// MaxStreamIndex is the largest internal stream index per sensor
	// (“256 internal-streams/sensor”).
	MaxStreamIndex = 1<<8 - 1
	// SeqCount is the number of distinct sequence values (“64K sequence counts”).
	SeqCount = 1 << 16
	// MaxPayload is the largest payload a message can carry, limited by the
	// 16-bit payload-size field (“payloads of 64K bytes”).
	MaxPayload = 1<<16 - 1
)

// SensorID identifies a physical (or virtual) sensor node. Valid values
// occupy 24 bits.
type SensorID uint32

// StreamIndex selects one of a sensor's internal data streams.
type StreamIndex uint8

// LocationStreamIndex is the reserved internal stream index on which the
// middleware publishes inferred location estimates for a sensor, so that —
// per §2 of the paper — location data is “treated as any other data
// stream” and can be guarded by the same subscription permissions.
const LocationStreamIndex StreamIndex = 0xFF

// StreamID is the composite stream identifier from Figure 2: the high 24
// bits name the originating sensor and the low 8 bits the sensor-internal
// stream.
type StreamID uint32

// ErrSensorRange is returned when a sensor id does not fit in 24 bits.
var ErrSensorRange = errors.New("wire: sensor id exceeds 24 bits")

// NewStreamID composes a StreamID from a sensor id and an internal stream
// index. It returns ErrSensorRange if sensor exceeds MaxSensorID.
func NewStreamID(sensor SensorID, index StreamIndex) (StreamID, error) {
	if sensor > MaxSensorID {
		return 0, fmt.Errorf("%w: %d", ErrSensorRange, sensor)
	}
	return StreamID(uint32(sensor)<<8 | uint32(index)), nil
}

// MustStreamID is NewStreamID for compile-time-known ids; it panics on a
// sensor id out of range.
func MustStreamID(sensor SensorID, index StreamIndex) StreamID {
	id, err := NewStreamID(sensor, index)
	if err != nil {
		panic(err)
	}
	return id
}

// Shards is the partition count of the in-memory data plane: the Stream
// Store, the dispatcher, the standalone filter and the Location Service
// each hold this many shards, keyed by Shard(Shards). Sixteen removes
// nearly all lock contention up to a few dozen concurrently publishing
// sensors and costs nothing at rest.
const Shards = 16

// Shard maps the sensor id to a partition in [0, n) with the 32-bit
// Fibonacci multiplier (2^32/φ): sensor ids are often small and
// sequential, and the multiply-shift spreads them uniformly even for
// power-of-two shard counts. The store and the dispatcher partition their
// per-stream state with this single function and the same count, so an
// accepted reception takes one store shard lock and, inside it, the
// dispatch shard lock of the same partition — keep it the one source of
// truth for state partitioning.
func (id SensorID) Shard(n int) int {
	h := uint32(id) * 0x9e3779b9
	return int((uint64(h) * uint64(n)) >> 32)
}

// Sensor returns the 24-bit sensor component of the id.
func (id StreamID) Sensor() SensorID { return SensorID(id >> 8) }

// Index returns the 8-bit internal stream component of the id.
func (id StreamID) Index() StreamIndex { return StreamIndex(id & 0xFF) }

// String renders the id as "sensor/index", e.g. "1042/3".
func (id StreamID) String() string {
	return strconv.FormatUint(uint64(id.Sensor()), 10) + "/" +
		strconv.FormatUint(uint64(id.Index()), 10)
}

// ParseStreamID parses the "sensor/index" form produced by String.
func ParseStreamID(s string) (StreamID, error) {
	sensorPart, indexPart, ok := strings.Cut(s, "/")
	if !ok {
		return 0, fmt.Errorf("wire: stream id %q: missing '/'", s)
	}
	sensor, err := strconv.ParseUint(sensorPart, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("wire: stream id %q: bad sensor: %w", s, err)
	}
	if sensor > MaxSensorID {
		return 0, fmt.Errorf("wire: stream id %q: %w", s, ErrSensorRange)
	}
	index, err := strconv.ParseUint(indexPart, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("wire: stream id %q: bad index: %w", s, err)
	}
	return MustStreamID(SensorID(sensor), StreamIndex(index)), nil
}

// Seq is a 16-bit message sequence number. Because only 64K sequence
// counts exist (Figure 2), long-lived streams wrap; comparisons therefore
// use RFC 1982 serial-number arithmetic so ordering and duplicate
// detection survive wrap-around.
type Seq uint16

// Next returns the sequence number following s, wrapping at 2^16.
func (s Seq) Next() Seq { return s + 1 }

// Less reports whether s precedes t in serial-number order. Exactly
// opposite values (distance 2^15) are unordered; Less reports false for
// both orderings of such a pair.
func (s Seq) Less(t Seq) bool {
	d := uint16(t - s)
	return d != 0 && d < 1<<15
}

// Distance returns the forward serial distance from s to t in
// [-32768, 32767]: positive when t is ahead of s.
func (s Seq) Distance(t Seq) int {
	return int(int16(t - s))
}
