package codec

import (
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// rawCodec stores payloads length-prefixed and uncompressed — the floor
// every other codec must beat, and the auto picker's choice for blocks
// too small to be worth modelling. The shared metadata section still
// applies, so even "raw" blocks are far denser than ring slots.
type rawCodec struct{}

func (rawCodec) ID() ID       { return IDRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) Encode(dst []byte, block []filtering.Delivery) []byte {
	dst = encodeMeta(dst, block)
	for i := range block {
		p := block[i].Msg.Payload
		dst = appendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

func (rawCodec) Decode(dst []filtering.Delivery, stream wire.StreamID, src []byte, sc *Scratch) ([]filtering.Delivery, error) {
	sc.reset()
	r := &reader{src: src}
	start := len(dst)
	dst, err := decodeMeta(dst, stream, r, sc)
	if err != nil {
		return dst, err
	}
	for range dst[start:] {
		n, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return dst, err
		}
		sc.appendPayload(b)
	}
	if err := finishPayloads(dst[start:], sc); err != nil {
		return dst, err
	}
	return dst, nil
}
