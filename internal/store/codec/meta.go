package codec

import (
	"math"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Shared block metadata layout, identical across codecs so only the
// payload section differs:
//
//	uvarint count
//	uvarint firstSeq                      (extended sequence of entry 0)
//	uvarint nReceivers; nReceivers × (uvarint len, bytes)
//	per entry i:
//	  uvarint seqDelta                    (i ≥ 1; gap to previous entry)
//	  svarint tsDoD                       (delta-of-delta of UnixNano;
//	                                       entry 0 carries the absolute
//	                                       time, entry 1 the first delta)
//	  uvarint receiverIndex               (only when nReceivers > 1)
//	  uvarint rssiXOR                     (float64 bits XOR previous)
//	  byte    flags; then the wire format's flag-conditional fields:
//	  uvarint ackID (ack), byte hop (relayed), byte fused (fused)
//
// The wire sequence is not stored: by construction of the store's unwrap
// the low 16 bits of the extended sequence are the wire sequence.

// appendUvarint appends v in LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// appendSvarint appends v zigzag-encoded.
func appendSvarint(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// reader walks an encoded block.
type reader struct {
	src []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.src) {
			return 0, corrupt("truncated uvarint")
		}
		b := r.src[r.pos]
		r.pos++
		if shift == 63 && b > 1 {
			return 0, corrupt("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, corrupt("uvarint overflow")
		}
	}
}

func (r *reader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.src) {
		return 0, corrupt("truncated byte")
	}
	b := r.src[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.src) {
		return nil, corrupt("truncated bytes (%d wanted)", n)
	}
	b := r.src[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// maxBlockEntries caps the entry count a decoder will accept, a
// corruption guard far above any store block size.
const maxBlockEntries = 1 << 20

// encodeMeta writes the shared metadata section for block.
func encodeMeta(dst []byte, block []filtering.Delivery) []byte {
	dst = appendUvarint(dst, uint64(len(block)))
	dst = appendUvarint(dst, block[0].StoreSeq)

	// Receiver dictionary: first-seen order. Blocks overwhelmingly carry
	// one receiver, so the scan is cheap and the per-entry index is
	// omitted entirely for the single-receiver case.
	var dict [8]string
	nRecv := 0
	spill := false // pathological: fall back to per-entry strings
	for i := range block {
		name := block[i].Receiver
		found := false
		for j := 0; j < nRecv; j++ {
			if dict[j] == name {
				found = true
				break
			}
		}
		if !found {
			if nRecv == len(dict) {
				spill = true
				break
			}
			dict[nRecv] = name
			nRecv++
		}
	}
	if spill {
		nRecv = 0
	}
	dst = appendUvarint(dst, uint64(nRecv))
	for j := 0; j < nRecv; j++ {
		dst = appendUvarint(dst, uint64(len(dict[j])))
		dst = append(dst, dict[j]...)
	}

	prevSeq := block[0].StoreSeq
	var prevTS, prevDelta int64
	prevRSSI := uint64(0)
	for i := range block {
		d := &block[i]
		if i > 0 {
			dst = appendUvarint(dst, d.StoreSeq-prevSeq)
			prevSeq = d.StoreSeq
		}
		ts := d.At.UnixNano()
		if i == 0 {
			dst = appendSvarint(dst, ts)
		} else {
			delta := ts - prevTS
			dst = appendSvarint(dst, delta-prevDelta)
			prevDelta = delta
		}
		prevTS = ts
		if nRecv > 1 {
			idx := 0
			for j := 0; j < nRecv; j++ {
				if dict[j] == d.Receiver {
					idx = j
					break
				}
			}
			dst = appendUvarint(dst, uint64(idx))
		} else if spill {
			dst = appendUvarint(dst, uint64(len(d.Receiver)))
			dst = append(dst, d.Receiver...)
		}
		bits := math.Float64bits(d.RSSI)
		dst = appendUvarint(dst, bits^prevRSSI)
		prevRSSI = bits
		f := d.Msg.Flags
		dst = append(dst, byte(f))
		if f.Has(wire.FlagUpdateAck) {
			dst = appendUvarint(dst, uint64(d.Msg.AckID))
		}
		if f.Has(wire.FlagRelayed) {
			dst = append(dst, d.Msg.HopCount)
		}
		if f.Has(wire.FlagFused) {
			dst = append(dst, d.Msg.FusedCount)
		}
	}
	return dst
}

// decodeMeta reads the metadata section, appending count deliveries with
// nil payloads to dst and naming their receivers through sc. The payload
// section decoder fills payloads in. On error dst may end in a partly
// decoded entry; every caller discards what a failed decode appended.
func decodeMeta(dst []filtering.Delivery, stream wire.StreamID, r *reader, sc *Scratch) ([]filtering.Delivery, error) {
	count, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if count == 0 || count > maxBlockEntries {
		return dst, corrupt("bad entry count %d", count)
	}
	firstSeq, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	nRecv, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if nRecv > 8 {
		return dst, corrupt("receiver dictionary too large: %d", nRecv)
	}
	var dict [8]string
	for j := uint64(0); j < nRecv; j++ {
		n, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return dst, err
		}
		dict[j] = sc.receiver(b)
	}

	seq := firstSeq
	var prevTS, prevDelta int64
	prevRSSI := uint64(0)
	for i := uint64(0); i < count; i++ {
		// Build the entry in place: with dst pre-sized by the reader this
		// is the only write of its 96 bytes.
		dst = append(dst, filtering.Delivery{})
		d := &dst[len(dst)-1]
		d.Msg.Stream = stream
		if i > 0 {
			gap, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			if gap == 0 {
				return dst, corrupt("non-ascending sequence")
			}
			seq += gap
		}
		d.StoreSeq = seq
		d.Msg.Seq = wire.Seq(seq)
		sv, err := r.svarint()
		if err != nil {
			return dst, err
		}
		var ts int64
		if i == 0 {
			ts = sv
		} else {
			prevDelta += sv
			ts = prevTS + prevDelta
		}
		prevTS = ts
		d.At = time.Unix(0, ts)
		switch {
		case nRecv > 1:
			idx, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			if idx >= nRecv {
				return dst, corrupt("receiver index %d of %d", idx, nRecv)
			}
			d.Receiver = dict[idx]
		case nRecv == 1:
			d.Receiver = dict[0]
		default:
			n, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			b, err := r.bytes(int(n))
			if err != nil {
				return dst, err
			}
			d.Receiver = sc.receiver(b)
		}
		x, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		prevRSSI ^= x
		d.RSSI = math.Float64frombits(prevRSSI)
		fb, err := r.byte()
		if err != nil {
			return dst, err
		}
		d.Msg.Flags = wire.Flags(fb)
		if d.Msg.Flags.Has(wire.FlagUpdateAck) {
			a, err := r.uvarint()
			if err != nil {
				return dst, err
			}
			d.Msg.AckID = uint16(a)
		}
		if d.Msg.Flags.Has(wire.FlagRelayed) {
			if d.Msg.HopCount, err = r.byte(); err != nil {
				return dst, err
			}
		}
		if d.Msg.Flags.Has(wire.FlagFused) {
			if d.Msg.FusedCount, err = r.byte(); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// finishPayloads converts the scratch offsets recorded by a payload
// decoder into payload slices over the (now stable) scratch buffer.
// Offsets are pairs into sc.bytes; a payload decoder appends one pair
// per entry. Empty payloads become nil, matching the store's
// "nil and empty are equivalent" wire rule via a canonical nil.
func finishPayloads(entries []filtering.Delivery, sc *Scratch) error {
	if len(sc.offs) != 2*len(entries) {
		return corrupt("payload count %d for %d entries", len(sc.offs)/2, len(entries))
	}
	for i := range entries {
		lo, hi := sc.offs[2*i], sc.offs[2*i+1]
		if lo < hi {
			entries[i].Msg.Payload = sc.bytes[lo:hi:hi]
		}
	}
	return nil
}

// appendPayload stages one payload's bytes in the scratch.
func (sc *Scratch) appendPayload(b []byte) {
	lo := len(sc.bytes)
	sc.bytes = append(sc.bytes, b...)
	sc.offs = append(sc.offs, lo, len(sc.bytes))
}

// bitWriter packs MSB-first bits onto a byte slice. writeBits takes at
// most 32 bits per call (≤ 7 pending + 32 new fits the accumulator);
// write64 splits wider values.
type bitWriter struct {
	buf []byte
	cur uint64 // pending bits in the low `n` positions
	n   uint   // pending bit count, always < 8 between calls
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	v &= (1 << n) - 1
	w.cur = w.cur<<n | v
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
	w.cur &= (1 << w.n) - 1
}

func (w *bitWriter) write64(v uint64, n uint) {
	if n > 32 {
		w.writeBits(v>>32, n-32)
		n = 32
	}
	w.writeBits(v, n)
}

// finish flushes the partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.n)))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

// bitReader reads MSB-first bits; readBits takes at most 32 bits per
// call, read64 splits wider reads.
type bitReader struct {
	src []byte
	pos int // next byte
	cur uint64
	n   uint
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	for r.n < n {
		if r.pos >= len(r.src) {
			return 0, corrupt("truncated bitstream")
		}
		r.cur = r.cur<<8 | uint64(r.src[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= n
	v := r.cur >> r.n
	r.cur &= (1 << r.n) - 1
	return v, nil
}

func (r *bitReader) read64(n uint) (uint64, error) {
	if n <= 32 {
		return r.readBits(n)
	}
	hi, err := r.readBits(n - 32)
	if err != nil {
		return 0, err
	}
	lo, err := r.readBits(32)
	if err != nil {
		return 0, err
	}
	return hi<<32 | lo, nil
}

func (r *bitReader) readBit() (uint64, error) { return r.readBits(1) }
