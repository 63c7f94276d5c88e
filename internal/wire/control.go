package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Op identifies the action a stream-update request asks a sensor to take.
// Receive-capable sensors apply the operation and acknowledge it with the
// update id on their next data message (FlagUpdateAck); simple
// transmit-only sensors never see downlink traffic.
type Op uint8

const (
	// OpSetRate sets the sampling rate of the target stream; Value is the
	// new rate in millihertz (1000 = one sample per second).
	OpSetRate Op = iota + 1
	// OpEnableStream starts the target internal stream.
	OpEnableStream
	// OpDisableStream stops the target internal stream.
	OpDisableStream
	// OpSetPayloadLimit caps the payload size of the target stream; Value
	// is the limit in bytes.
	OpSetPayloadLimit
	// OpSetParam sets a device-specific parameter: Param is the key,
	// Value the value. The middleware does not interpret either.
	OpSetParam
	// OpPing requests an acknowledgement without changing anything, used
	// to probe whether a sensor is reachable (and receive-capable).
	OpPing

	opSentinel // one past the last valid op
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSetRate:
		return "set-rate"
	case OpEnableStream:
		return "enable-stream"
	case OpDisableStream:
		return "disable-stream"
	case OpSetPayloadLimit:
		return "set-payload-limit"
	case OpSetParam:
		return "set-param"
	case OpPing:
		return "ping"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o >= OpSetRate && o < opSentinel }

// ControlSize is the fixed encoded size of a control message: a version
// byte, 16-bit update id, 32-bit target StreamID, op, param, 32-bit value,
// 64-bit issue timestamp (µs since the Unix epoch) and the Fletcher-16
// checksum. The Actuation Service stamps the timestamp and checksum before
// handing the frame to the Message Replicator (§4.2).
const ControlSize = 1 + 2 + 4 + 1 + 1 + 4 + 8 + ChecksumSize

// ErrBadOp is returned when a control frame carries an undefined op.
var ErrBadOp = fmt.Errorf("wire: invalid control op")

// ControlMessage is a decoded stream-update request travelling the return
// actuation path (consumer → Resource Manager → Actuation Service →
// Message Replicator → Transmitters → sensor).
type ControlMessage struct {
	UpdateID uint16 // id echoed back in the sensor's acknowledgement
	Target   StreamID
	Op       Op
	Param    uint8
	Value    uint32
	Issued   time.Time // stamped by the Actuation Service, µs precision
}

// AppendEncode appends the encoded control frame to dst.
func (c *ControlMessage) AppendEncode(dst []byte) ([]byte, error) {
	if !c.Op.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadOp, uint8(c.Op))
	}
	start := len(dst)
	dst = append(dst, byte(Version<<6))
	dst = binary.BigEndian.AppendUint16(dst, c.UpdateID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.Target))
	dst = append(dst, byte(c.Op), c.Param)
	dst = binary.BigEndian.AppendUint32(dst, c.Value)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Issued.UnixMicro()))
	sum := fletcher16(dst[start:])
	dst = binary.BigEndian.AppendUint16(dst, sum)
	return dst, nil
}

// Encode returns the encoded control frame as a fresh slice.
func (c *ControlMessage) Encode() ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, ControlSize))
}

// ControlTarget reads the stream a control frame is addressed to without
// validating anything but the frame's length: every sensor in range hears
// every downlink frame, and all but one of them need only this to discard
// it. ok is false when b is too short to be a control frame. A frame whose
// target matters to the caller must still pass DecodeControl — the target
// bytes themselves may be what the channel corrupted.
func ControlTarget(b []byte) (target StreamID, ok bool) {
	if len(b) < ControlSize {
		return 0, false
	}
	return StreamID(binary.BigEndian.Uint32(b[3:])), true
}

// DecodeControl decodes a control frame. It validates length, version,
// reserved bits, op and checksum.
func DecodeControl(b []byte) (ControlMessage, error) {
	if len(b) < ControlSize {
		return ControlMessage{}, fmt.Errorf("%w: %d bytes, need %d", ErrTruncated, len(b), ControlSize)
	}
	b = b[:ControlSize]
	if v := b[0] >> 6; v != Version {
		return ControlMessage{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	if b[0]&0x3F != 0 {
		return ControlMessage{}, ErrReservedFlags
	}
	body := b[:ControlSize-ChecksumSize]
	want := binary.BigEndian.Uint16(b[ControlSize-ChecksumSize:])
	if got := fletcher16(body); got != want {
		return ControlMessage{}, fmt.Errorf("%w: computed %#04x, frame carries %#04x", ErrChecksum, got, want)
	}
	c := ControlMessage{
		UpdateID: binary.BigEndian.Uint16(b[1:]),
		Target:   StreamID(binary.BigEndian.Uint32(b[3:])),
		Op:       Op(b[7]),
		Param:    b[8],
		Value:    binary.BigEndian.Uint32(b[9:]),
		Issued:   time.UnixMicro(int64(binary.BigEndian.Uint64(b[13:]))).UTC(),
	}
	if !c.Op.Valid() {
		return ControlMessage{}, fmt.Errorf("%w: %d", ErrBadOp, uint8(c.Op))
	}
	return c, nil
}
