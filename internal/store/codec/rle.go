package codec

import (
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// rleCodec run-length encodes consecutive identical payloads — the
// natural fit for state-like streams (door open/closed, mode flags,
// quantised readings that hold a level) where a whole block can collapse
// to one run.
//
// Payload section: runs of (uvarint runLength, uvarint payloadLength,
// payload bytes) covering the block's entries in order.
type rleCodec struct{}

func (rleCodec) ID() ID       { return IDRLE }
func (rleCodec) Name() string { return "rle" }

func (rleCodec) Encode(dst []byte, block []filtering.Delivery) []byte {
	dst = encodeMeta(dst, block)
	for i := 0; i < len(block); {
		p := block[i].Msg.Payload
		run := 1
		for i+run < len(block) && bytesEqual(block[i+run].Msg.Payload, p) {
			run++
		}
		dst = appendUvarint(dst, uint64(run))
		dst = appendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
		i += run
	}
	return dst
}

func (rleCodec) Decode(dst []filtering.Delivery, stream wire.StreamID, src []byte, sc *Scratch) ([]filtering.Delivery, error) {
	sc.reset()
	r := &reader{src: src}
	start := len(dst)
	dst, err := decodeMeta(dst, stream, r, sc)
	if err != nil {
		return dst, err
	}
	remaining := len(dst) - start
	for remaining > 0 {
		run, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if run == 0 || run > uint64(remaining) {
			return dst, corrupt("run length %d with %d entries left", run, remaining)
		}
		n, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return dst, err
		}
		for j := uint64(0); j < run; j++ {
			sc.appendPayload(b)
		}
		remaining -= int(run)
	}
	if err := finishPayloads(dst[start:], sc); err != nil {
		return dst, err
	}
	return dst, nil
}
