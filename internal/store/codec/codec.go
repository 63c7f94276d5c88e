// Package codec implements the Stream Store's block compression: every
// codec encodes a closed, immutable block of retained deliveries —
// ascending extended sequences on one stream — into a self-contained byte
// string and decodes it back bit-exactly.
//
// Retained sensor readings are numeric time series, the ideal case for
// Gorilla-style compression (Pelkonen et al., VLDB 2015): timestamps are
// near-periodic (delta-of-delta ≈ 0) and successive float64 readings XOR
// to mostly-zero words. The package ships four codecs plus a heuristic
// picker:
//
//   - Gorilla: XOR-compressed 8-byte values with leading/trailing-zero
//     windows, bit-packed; the headline codec for numeric streams.
//   - RLE: run-length encoding of identical payloads, for slow-moving or
//     state-like streams.
//   - LZ: a byte-oriented LZ77 block codec (greedy hash matcher,
//     literal/copy tokens) for text or structured payloads.
//   - Raw: length-prefixed passthrough, the fallback floor.
//
// All codecs share one metadata layout (sequence deltas, timestamp
// delta-of-delta, RSSI XOR, receiver dictionary, wire flags) so the
// payload strategy is the only thing that varies; blocks are tagged with
// the codec ID by the store, making every block self-describing.
//
// # Contract
//
// Encode(Decode) must be the identity on the delivery fields the store
// retains: StoreSeq, wire sequence (derived: the low 16 bits of the
// extended sequence by construction of the unwrap), payload bytes, At
// (wall clock at nanosecond precision; the monotonic reading is
// dropped), Receiver, RSSI (bit-exact, NaN included) and the
// flag-conditional wire fields (AckID, HopCount, FusedCount — like the
// wire format itself, fields whose flag is clear are not preserved).
// Codecs are stateless and safe for concurrent use.
package codec

import (
	"errors"
	"fmt"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/intern"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// ID tags an encoded block with the codec that produced it. IDs are
// persisted as the first byte of every block — never renumber them.
type ID uint8

// Codec identifiers.
const (
	IDRaw ID = iota
	IDGorilla
	IDRLE
	IDLZ

	idCount
)

// Codec encodes and decodes closed blocks of deliveries.
type Codec interface {
	// ID is the persistent block tag.
	ID() ID
	// Name is the user-facing codec name ("gorilla", "rle", ...).
	Name() string
	// Encode appends block's encoding to dst and returns the extended
	// slice. block must be non-empty, ascending by StoreSeq, and all on
	// one stream. Encode never fails: every codec degrades to a stored
	// (uncompressed) payload section when its model does not fit.
	Encode(dst []byte, block []filtering.Delivery) []byte
	// Decode appends the block's deliveries to dst, stamping stream onto
	// every message. Payload bytes live in sc and are valid until the
	// scratch is reused; callers that keep a delivery must copy, or
	// attach a buffer they own (Scratch.Attach).
	Decode(dst []filtering.Delivery, stream wire.StreamID, src []byte, sc *Scratch) ([]filtering.Delivery, error)
}

// Scratch is reusable decode memory: payload bytes land in one grown
// buffer and the decoded deliveries alias it. Pool Scratches across
// decodes; the zero value is ready to use.
//
// A reader that keeps what it decodes attaches a buffer of its own
// instead: decodes then append their payload bytes to that buffer rather
// than overwrite the recycled one, so the deliveries alias memory the
// reader owns and stay valid after the scratch goes back to its pool.
type Scratch struct {
	bytes    []byte
	offs     []int
	recycled []byte // the scratch's own buffer, parked while one is attached
	attached bool
}

// Attach makes buf the payload buffer of the decodes that follow, until
// Detach: each appends after whatever buf already holds. When buf runs
// out of capacity, append moves the later payloads to a larger private
// array — earlier deliveries keep aliasing the old one, both stay valid.
func (sc *Scratch) Attach(buf []byte) {
	sc.recycled, sc.bytes, sc.attached = sc.bytes, buf, true
}

// Detach returns the attached buffer, grown by the decodes since Attach,
// and puts the scratch back on its own recycled one.
func (sc *Scratch) Detach() []byte {
	buf := sc.bytes
	sc.bytes, sc.recycled, sc.attached = sc.recycled, nil, false
	return buf
}

// reset prepares the scratch for one decode.
func (sc *Scratch) reset() {
	if !sc.attached {
		sc.bytes = sc.bytes[:0]
	}
	sc.offs = sc.offs[:0]
}

// ErrCorrupt is wrapped by every decode failure.
var ErrCorrupt = errors.New("codec: corrupt block")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

var codecs = [idCount]Codec{
	IDRaw:     rawCodec{},
	IDGorilla: gorillaCodec{},
	IDRLE:     rleCodec{},
	IDLZ:      lzCodec{},
}

// Raw, Gorilla, RLE and LZ are the package's codec singletons.
var (
	Raw     Codec = rawCodec{}
	Gorilla Codec = gorillaCodec{}
	RLE     Codec = rleCodec{}
	LZ      Codec = lzCodec{}
)

// ByID returns the codec a block tag names.
func ByID(id ID) (Codec, bool) {
	if int(id) >= len(codecs) || codecs[id] == nil {
		return nil, false
	}
	return codecs[id], true
}

// ByName returns the codec with the given user-facing name.
func ByName(name string) (Codec, bool) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// Names lists every selectable codec name, plus "auto".
func Names() []string {
	out := make([]string, 0, len(codecs)+1)
	for _, c := range codecs {
		out = append(out, c.Name())
	}
	return append(out, "auto")
}

// Picker chooses the codec for one closed block. A fixed picker ignores
// the block; the auto picker inspects it.
type Picker func(block []filtering.Delivery) Codec

// PickerFor resolves a codec name ("raw", "gorilla", "rle", "lz") or
// "auto" to a Picker.
func PickerFor(name string) (Picker, error) {
	if name == "auto" {
		return Choose, nil
	}
	c, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %v)", name, Names())
	}
	return func([]filtering.Delivery) Codec { return c }, nil
}

// Choose is the heuristic auto picker: streams that repeat payloads get
// RLE, fixed 8-byte payloads (float64 readings) get Gorilla, tiny blocks
// stay Raw, everything else gets the LZ block codec.
func Choose(block []filtering.Delivery) Codec {
	if len(block) == 0 {
		return Raw
	}
	dups, fixed8, total := 0, true, 0
	for i := range block {
		p := block[i].Msg.Payload
		total += len(p)
		if len(p) != 8 {
			fixed8 = false
		}
		if i > 0 && bytesEqual(p, block[i-1].Msg.Payload) {
			dups++
		}
	}
	switch {
	case len(block) > 1 && dups*2 >= len(block)-1:
		return RLE
	case fixed8:
		return Gorilla
	case total < 2*len(block):
		return Raw // payloads too small for match-finding to pay off
	default:
		return LZ
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// internReceiver maps decoded receiver-name bytes to the process-wide
// canonical string — the same one receiver.New installs — so decoded
// blocks share receiver identity with live deliveries instead of
// rebuilding a private copy per decode. Deployments have a small fixed
// receiver set, so after warm-up block decodes allocate no strings and
// take no lock.
func internReceiver(b []byte) string {
	return intern.Bytes(b)
}
