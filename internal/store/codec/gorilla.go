package codec

import (
	"encoding/binary"
	"math/bits"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// gorillaCodec compresses fixed 8-byte payloads — float64 sensor
// readings — with the XOR scheme from Facebook's Gorilla TSDB (Pelkonen
// et al., VLDB 2015): successive values XOR to words that are zero (the
// reading held) or carry a short run of meaningful bits (it drifted),
// and the leading/trailing-zero window of the previous value usually
// still fits, so most samples cost 1–2 bits of control plus the
// meaningful bits. Timestamp regularity is already captured by the
// shared metadata's delta-of-delta varints.
//
// Payload section: mode byte — 1 when every payload is exactly 8 bytes,
// then the bit-packed XOR stream; 0 otherwise, then raw length-prefixed
// payloads (the codec never fails, it degrades).
type gorillaCodec struct{}

func (gorillaCodec) ID() ID       { return IDGorilla }
func (gorillaCodec) Name() string { return "gorilla" }

func (gorillaCodec) Encode(dst []byte, block []filtering.Delivery) []byte {
	fixed8 := true
	for i := range block {
		if len(block[i].Msg.Payload) != 8 {
			fixed8 = false
			break
		}
	}
	dst = encodeMeta(dst, block)
	if !fixed8 {
		dst = append(dst, 0)
		for i := range block {
			p := block[i].Msg.Payload
			dst = appendUvarint(dst, uint64(len(p)))
			dst = append(dst, p...)
		}
		return dst
	}
	dst = append(dst, 1)
	w := bitWriter{buf: dst}
	var prev uint64
	prevLead, prevSig := uint(0), uint(0)
	for i := range block {
		v := binary.BigEndian.Uint64(block[i].Msg.Payload)
		if i == 0 {
			w.write64(v, 64)
			prev = v
			continue
		}
		x := v ^ prev
		prev = v
		if x == 0 {
			w.writeBit(0)
			continue
		}
		lead := uint(bits.LeadingZeros64(x))
		if lead > 31 {
			lead = 31 // 5-bit field; a narrower window is still correct
		}
		trail := uint(bits.TrailingZeros64(x))
		sig := 64 - lead - trail
		if prevSig > 0 && lead >= prevLead && sig <= prevSig && 64-prevLead-prevSig <= trail {
			// Previous window still covers the meaningful bits.
			w.writeBits(0b10, 2)
			w.write64(x>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lead), 5)
		w.writeBits(uint64(sig-1), 6) // 1..64 stored as 0..63
		w.write64(x>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

func (gorillaCodec) Decode(dst []filtering.Delivery, stream wire.StreamID, src []byte, sc *Scratch) ([]filtering.Delivery, error) {
	sc.reset()
	r := &reader{src: src}
	start := len(dst)
	dst, err := decodeMeta(dst, stream, r, sc)
	if err != nil {
		return dst, err
	}
	entries := dst[start:]
	mode, err := r.byte()
	if err != nil {
		return dst, err
	}
	switch mode {
	case 0:
		for range entries {
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
	case 1:
		br := bitReader{src: r.src[r.pos:]}
		var prev uint64
		prevLead, prevSig := uint(0), uint(0)
		var word [8]byte
		for i := range entries {
			if i == 0 {
				v, err := br.read64(64)
				if err != nil {
					return dst, err
				}
				prev = v
			} else {
				b, err := br.readBit()
				if err != nil {
					return dst, err
				}
				if b == 1 {
					ctl, err := br.readBit()
					if err != nil {
						return dst, err
					}
					lead, sig := prevLead, prevSig
					if ctl == 1 {
						l, err := br.readBits(5)
						if err != nil {
							return dst, err
						}
						s, err := br.readBits(6)
						if err != nil {
							return dst, err
						}
						lead, sig = uint(l), uint(s)+1
						prevLead, prevSig = lead, sig
					} else if sig == 0 {
						return dst, corrupt("gorilla window reuse before first window")
					}
					if lead+sig > 64 {
						return dst, corrupt("gorilla window %d+%d out of range", lead, sig)
					}
					m, err := br.read64(sig)
					if err != nil {
						return dst, err
					}
					prev ^= m << (64 - lead - sig)
				}
			}
			binary.BigEndian.PutUint64(word[:], prev)
			sc.appendPayload(word[:])
		}
	default:
		return dst, corrupt("gorilla mode byte %d", mode)
	}
	if err := finishPayloads(entries, sc); err != nil {
		return dst, err
	}
	return dst, nil
}
