package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestControlRoundTrip(t *testing.T) {
	issued := time.Date(2003, 5, 20, 12, 30, 45, 123456000, time.UTC)
	tests := []struct {
		name string
		msg  ControlMessage
	}{
		{"set rate", ControlMessage{UpdateID: 1, Target: MustStreamID(42, 1), Op: OpSetRate, Value: 2000, Issued: issued}},
		{"enable", ControlMessage{UpdateID: 2, Target: MustStreamID(7, 3), Op: OpEnableStream, Issued: issued}},
		{"disable", ControlMessage{UpdateID: 3, Target: MustStreamID(7, 3), Op: OpDisableStream, Issued: issued}},
		{"payload limit", ControlMessage{UpdateID: 4, Target: MustStreamID(9, 0), Op: OpSetPayloadLimit, Value: 1024, Issued: issued}},
		{"param", ControlMessage{UpdateID: 5, Target: MustStreamID(9, 0), Op: OpSetParam, Param: 17, Value: 0xDEADBEEF, Issued: issued}},
		{"ping", ControlMessage{UpdateID: 65535, Target: MustStreamID(MaxSensorID, 255), Op: OpPing, Issued: issued}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := tt.msg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) != ControlSize {
				t.Errorf("frame length = %d, want %d", len(frame), ControlSize)
			}
			got, err := DecodeControl(frame)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.msg {
				t.Errorf("got %+v, want %+v", got, tt.msg)
			}
			if target, ok := ControlTarget(frame); !ok || target != tt.msg.Target {
				t.Errorf("ControlTarget = %v, %v, want %v", target, ok, tt.msg.Target)
			}
			if _, ok := ControlTarget(frame[:ControlSize-1]); ok {
				t.Error("ControlTarget accepted a truncated frame")
			}
		})
	}
}

func TestControlTimestampPrecision(t *testing.T) {
	// Sub-microsecond precision is truncated by the 64-bit µs field.
	c := ControlMessage{UpdateID: 1, Target: MustStreamID(1, 0), Op: OpPing,
		Issued: time.Date(2003, 5, 20, 0, 0, 0, 1500, time.UTC)} // 1.5µs
	frame, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeControl(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Issued.Truncate(time.Microsecond); !got.Issued.Equal(want) {
		t.Errorf("Issued = %v, want %v", got.Issued, want)
	}
}

func TestControlEncodeRejectsBadOp(t *testing.T) {
	for _, op := range []Op{0, opSentinel, 200} {
		c := ControlMessage{Target: MustStreamID(1, 0), Op: op}
		if _, err := c.Encode(); !errors.Is(err, ErrBadOp) {
			t.Errorf("op %d: err = %v, want ErrBadOp", op, err)
		}
	}
}

func TestControlDecodeErrors(t *testing.T) {
	valid, err := (&ControlMessage{UpdateID: 9, Target: MustStreamID(3, 1), Op: OpSetRate, Value: 1000, Issued: time.UnixMicro(1).UTC()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeControl(valid[:ControlSize-1]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0] = 0x80
		if _, err := DecodeControl(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("reserved bits", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0] |= 0x01
		if _, err := DecodeControl(bad); err == nil {
			t.Error("want error for reserved bits")
		}
	})
	t.Run("corrupt body", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[10] ^= 0x40
		if _, err := DecodeControl(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("bad op with fixed checksum", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[7] = 0xEE
		body := bad[:ControlSize-ChecksumSize]
		sum := Fletcher16(body)
		bad[ControlSize-2] = byte(sum >> 8)
		bad[ControlSize-1] = byte(sum)
		if _, err := DecodeControl(bad); !errors.Is(err, ErrBadOp) {
			t.Errorf("err = %v, want ErrBadOp", err)
		}
	})
}

func TestOpStringAndValid(t *testing.T) {
	wantNames := map[Op]string{
		OpSetRate: "set-rate", OpEnableStream: "enable-stream",
		OpDisableStream: "disable-stream", OpSetPayloadLimit: "set-payload-limit",
		OpSetParam: "set-param", OpPing: "ping",
	}
	for op, want := range wantNames {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
		if !op.Valid() {
			t.Errorf("Op(%d) should be valid", op)
		}
	}
	if Op(0).Valid() || opSentinel.Valid() {
		t.Error("0 and sentinel should be invalid")
	}
	if got := Op(99).String(); got != "op(99)" {
		t.Errorf("unknown op String = %q", got)
	}
}

// Property: control encode→decode round-trips for all valid inputs.
func TestControlRoundTripProperty(t *testing.T) {
	f := func(updateID uint16, sensor uint32, index uint8, opRaw uint8, param uint8, value uint32, micros int64) bool {
		op := Op(opRaw%uint8(opSentinel-1)) + 1
		c := ControlMessage{
			UpdateID: updateID,
			Target:   MustStreamID(SensorID(sensor)&MaxSensorID, StreamIndex(index)),
			Op:       op,
			Param:    param,
			Value:    value,
			Issued:   time.UnixMicro(micros % (1 << 50)).UTC(),
		}
		frame, err := c.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeControl(frame)
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
