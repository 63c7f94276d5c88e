package codec

import (
	"sync"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// lzCodec is the general-purpose byte-oriented block codec: payloads are
// concatenated and run through a small LZ77 compressor (greedy 4-byte
// hash matcher over the whole block, so repetition *across* messages —
// the common case for structured or textual sensor payloads — is
// captured, not just repetition within one payload).
//
// Payload section: per-entry uvarint lengths, then a mode byte — 1 and
// (uvarint compressedLen, tokens) when compression won, 0 and the raw
// concatenation when it did not (incompressible blocks cost one byte).
//
// Token stream: control byte c — c < 0x80 is a literal run of c+1 bytes
// that follow; c ≥ 0x80 is a match of (c & 0x7f) + 4 bytes at uvarint
// distance back into the output. Longer matches chain tokens.
type lzCodec struct{}

func (lzCodec) ID() ID       { return IDLZ }
func (lzCodec) Name() string { return "lz" }

const (
	lzMinMatch = 4
	lzMaxMatch = 0x7f + lzMinMatch
	lzHashBits = 13
)

// lzScratch pools the concatenation and compression buffers plus the
// match-finder table so steady-state sealing allocates nothing.
type lzScratch struct {
	raw   []byte
	comp  []byte
	table [1 << lzHashBits]int32
}

var lzPool = sync.Pool{New: func() any { return new(lzScratch) }}

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

func lzLoad32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// lzCompress appends the token stream for src to dst.
func lzCompress(dst, src []byte, table *[1 << lzHashBits]int32) []byte {
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	emitLiterals := func(dst []byte, end int) []byte {
		for litStart < end {
			n := end - litStart
			if n > 128 {
				n = 128
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
		return dst
	}
	i := 0
	for i+lzMinMatch <= len(src) {
		h := lzHash(lzLoad32(src, i))
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || lzLoad32(src, int(cand)) != lzLoad32(src, i) {
			i++
			continue
		}
		// Extend the match.
		mlen := lzMinMatch
		for i+mlen < len(src) && src[int(cand)+mlen] == src[i+mlen] {
			mlen++
		}
		dst = emitLiterals(dst, i)
		dist := uint64(i - int(cand))
		for mlen > 0 {
			n := mlen
			if n > lzMaxMatch {
				n = lzMaxMatch
			}
			if n < lzMinMatch {
				break // tail shorter than a token; leave as literals
			}
			dst = append(dst, byte(0x80|(n-lzMinMatch)))
			dst = appendUvarint(dst, dist)
			i += n
			mlen -= n
		}
		litStart = i
	}
	return emitLiterals(dst, len(src))
}

// lzDecompress appends the decompression of the token stream to dst,
// stopping once want bytes have been produced.
func lzDecompress(dst []byte, r *reader, want int) ([]byte, error) {
	base := len(dst)
	for len(dst)-base < want {
		c, err := r.byte()
		if err != nil {
			return dst, err
		}
		if c < 0x80 {
			b, err := r.bytes(int(c) + 1)
			if err != nil {
				return dst, err
			}
			dst = append(dst, b...)
			continue
		}
		mlen := int(c&0x7f) + lzMinMatch
		dist, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if dist == 0 || dist > uint64(len(dst)-base) {
			return dst, corrupt("lz match distance %d beyond %d output bytes", dist, len(dst)-base)
		}
		// Byte-by-byte copy: overlapping matches (dist < mlen) replicate.
		from := len(dst) - int(dist)
		for j := 0; j < mlen; j++ {
			dst = append(dst, dst[from+j])
		}
	}
	if len(dst)-base != want {
		return dst, corrupt("lz output %d bytes, want %d", len(dst)-base, want)
	}
	return dst, nil
}

func (lzCodec) Encode(dst []byte, block []filtering.Delivery) []byte {
	dst = encodeMeta(dst, block)
	sc := lzPool.Get().(*lzScratch)
	sc.raw = sc.raw[:0]
	for i := range block {
		p := block[i].Msg.Payload
		dst = appendUvarint(dst, uint64(len(p)))
		sc.raw = append(sc.raw, p...)
	}
	sc.comp = lzCompress(sc.comp[:0], sc.raw, &sc.table)
	if len(sc.comp) < len(sc.raw) {
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(len(sc.comp)))
		dst = append(dst, sc.comp...)
	} else {
		dst = append(dst, 0)
		dst = append(dst, sc.raw...)
	}
	lzPool.Put(sc)
	return dst
}

func (lzCodec) Decode(dst []filtering.Delivery, stream wire.StreamID, src []byte, sc *Scratch) ([]filtering.Delivery, error) {
	sc.reset()
	r := &reader{src: src}
	start := len(dst)
	dst, err := decodeMeta(dst, stream, r)
	if err != nil {
		return dst, err
	}
	entries := dst[start:]
	base, total := len(sc.bytes), 0
	for range entries {
		n, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if n > uint64(len(src))*256 {
			return dst, corrupt("implausible payload length %d", n)
		}
		sc.offs = append(sc.offs, base+total, base+total+int(n))
		total += int(n)
	}
	mode, err := r.byte()
	if err != nil {
		return dst, err
	}
	switch mode {
	case 0:
		b, err := r.bytes(total)
		if err != nil {
			return dst, err
		}
		sc.bytes = append(sc.bytes, b...)
	case 1:
		clen, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		cb, err := r.bytes(int(clen))
		if err != nil {
			return dst, err
		}
		cr := &reader{src: cb}
		if sc.bytes, err = lzDecompress(sc.bytes, cr, total); err != nil {
			return dst, err
		}
	default:
		return dst, corrupt("lz mode byte %d", mode)
	}
	if err := finishPayloads(entries, sc); err != nil {
		return dst, err
	}
	return dst, nil
}
