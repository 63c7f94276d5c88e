package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var testStream = wire.MustStreamID(1042, 3)

var testEpoch = time.Unix(1_700_000_000, 0)

// entry builds a block entry with the package invariant the store
// guarantees: the wire sequence is the low 16 bits of the extended one.
func entry(seq uint64, at time.Time, payload []byte) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{
			Stream:  testStream,
			Seq:     wire.Seq(seq),
			Payload: payload,
		},
		At:       at,
		Receiver: "recv-0",
		RSSI:     -61.5,
		StoreSeq: seq,
	}
}

func f64(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// roundTrip encodes block with c, decodes it, and checks the identity
// contract field by field.
func roundTrip(t *testing.T, c Codec, block []filtering.Delivery) []byte {
	t.Helper()
	enc := c.Encode(nil, block)
	var sc Scratch
	got, err := c.Decode(nil, testStream, enc, &sc)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if len(got) != len(block) {
		t.Fatalf("%s: decoded %d entries, want %d", c.Name(), len(got), len(block))
	}
	for i := range block {
		want, have := &block[i], &got[i]
		if have.StoreSeq != want.StoreSeq {
			t.Fatalf("%s[%d]: StoreSeq %d, want %d", c.Name(), i, have.StoreSeq, want.StoreSeq)
		}
		if have.Msg.Seq != wire.Seq(want.StoreSeq) {
			t.Fatalf("%s[%d]: wire seq %d, want %d", c.Name(), i, have.Msg.Seq, wire.Seq(want.StoreSeq))
		}
		if have.Msg.Stream != testStream {
			t.Fatalf("%s[%d]: stream %v", c.Name(), i, have.Msg.Stream)
		}
		if !have.At.Equal(want.At) {
			t.Fatalf("%s[%d]: At %v, want %v", c.Name(), i, have.At, want.At)
		}
		if have.Receiver != want.Receiver {
			t.Fatalf("%s[%d]: receiver %q, want %q", c.Name(), i, have.Receiver, want.Receiver)
		}
		if math.Float64bits(have.RSSI) != math.Float64bits(want.RSSI) {
			t.Fatalf("%s[%d]: RSSI %v, want %v", c.Name(), i, have.RSSI, want.RSSI)
		}
		if !bytes.Equal(have.Msg.Payload, want.Msg.Payload) {
			t.Fatalf("%s[%d]: payload %x, want %x", c.Name(), i, have.Msg.Payload, want.Msg.Payload)
		}
		if have.Msg.Flags != want.Msg.Flags {
			t.Fatalf("%s[%d]: flags %v, want %v", c.Name(), i, have.Msg.Flags, want.Msg.Flags)
		}
		if want.Msg.Flags.Has(wire.FlagUpdateAck) && have.Msg.AckID != want.Msg.AckID {
			t.Fatalf("%s[%d]: ackID %d, want %d", c.Name(), i, have.Msg.AckID, want.Msg.AckID)
		}
		if want.Msg.Flags.Has(wire.FlagRelayed) && have.Msg.HopCount != want.Msg.HopCount {
			t.Fatalf("%s[%d]: hop %d, want %d", c.Name(), i, have.Msg.HopCount, want.Msg.HopCount)
		}
		if want.Msg.Flags.Has(wire.FlagFused) && have.Msg.FusedCount != want.Msg.FusedCount {
			t.Fatalf("%s[%d]: fused %d, want %d", c.Name(), i, have.Msg.FusedCount, want.Msg.FusedCount)
		}
	}
	return enc
}

func allCodecs() []Codec { return []Codec{Raw, Gorilla, RLE, LZ} }

func testBlocks() map[string][]filtering.Delivery {
	blocks := map[string][]filtering.Delivery{}

	blocks["single"] = []filtering.Delivery{entry(7, testEpoch, []byte("one"))}

	var constant []filtering.Delivery
	for i := 0; i < 64; i++ {
		constant = append(constant, entry(uint64(100+i), testEpoch.Add(time.Duration(i)*time.Second), f64(21.5)))
	}
	blocks["constant-float"] = constant

	var ramp []filtering.Delivery
	for i := 0; i < 64; i++ {
		ramp = append(ramp, entry(uint64(200+i), testEpoch.Add(time.Duration(i)*time.Second), f64(20+0.125*float64(i))))
	}
	blocks["ramp-float"] = ramp

	rng := rand.New(rand.NewSource(1))
	var noisy []filtering.Delivery
	for i := 0; i < 64; i++ {
		noisy = append(noisy, entry(uint64(300+i*3), testEpoch.Add(time.Duration(i*250)*time.Millisecond), f64(20+rng.NormFloat64())))
	}
	blocks["noisy-float-gaps"] = noisy

	var text []filtering.Delivery
	for i := 0; i < 32; i++ {
		text = append(text, entry(uint64(400+i), testEpoch.Add(time.Duration(i)*time.Minute),
			[]byte("temp=21.5C humidity=40% status=nominal battery=ok")))
	}
	blocks["text-repeat"] = text

	var random []filtering.Delivery
	for i := 0; i < 16; i++ {
		p := make([]byte, 5+rng.Intn(40))
		rng.Read(p)
		random = append(random, entry(uint64(500+i), testEpoch.Add(time.Duration(i)*time.Second), p))
	}
	blocks["incompressible"] = random

	blocks["empty-payloads"] = []filtering.Delivery{
		entry(600, testEpoch, nil),
		entry(601, testEpoch.Add(time.Second), []byte{}),
		entry(602, testEpoch.Add(2*time.Second), []byte("x")),
		entry(603, testEpoch.Add(3*time.Second), nil),
	}

	// Extended sequences crossing a 16-bit wire wrap: the derived wire
	// seq must follow the low 16 bits.
	var wrap []filtering.Delivery
	for i := 0; i < 8; i++ {
		wrap = append(wrap, entry(uint64(65530+i*2), testEpoch.Add(time.Duration(i)*time.Second), f64(float64(i))))
	}
	blocks["wire-wrap"] = wrap

	// Timestamps that go backwards (receive-time reordering) and jitter.
	blocks["non-monotonic-ts"] = []filtering.Delivery{
		entry(700, testEpoch, []byte("a")),
		entry(701, testEpoch.Add(-3*time.Second), []byte("b")),
		entry(702, testEpoch.Add(500*time.Nanosecond), []byte("c")),
		entry(703, testEpoch.Add(-time.Hour), []byte("d")),
	}

	multi := []filtering.Delivery{
		entry(800, testEpoch, []byte("p")),
		entry(801, testEpoch.Add(time.Second), []byte("q")),
		entry(802, testEpoch.Add(2*time.Second), []byte("r")),
	}
	multi[1].Receiver = "recv-1"
	multi[2].Receiver = "recv-0"
	blocks["two-receivers"] = multi

	// More receivers than the dictionary holds: the spill path.
	var spill []filtering.Delivery
	for i := 0; i < 12; i++ {
		d := entry(uint64(900+i), testEpoch.Add(time.Duration(i)*time.Second), []byte("s"))
		d.Receiver = "spill-" + string(rune('a'+i))
		spill = append(spill, d)
	}
	blocks["receiver-spill"] = spill

	flagged := []filtering.Delivery{
		entry(1000, testEpoch, []byte("f0")),
		entry(1001, testEpoch.Add(time.Second), []byte("f1")),
		entry(1002, testEpoch.Add(2*time.Second), []byte("f2")),
		entry(1003, testEpoch.Add(3*time.Second), []byte("f3")),
	}
	flagged[0].Msg.Flags = wire.FlagUpdateAck
	flagged[0].Msg.AckID = 0xBEEF
	flagged[1].Msg.Flags = wire.FlagRelayed | wire.FlagFused
	flagged[1].Msg.HopCount = 5
	flagged[1].Msg.FusedCount = 3
	flagged[2].Msg.Flags = wire.FlagEncrypted | wire.FlagLocationAware
	blocks["flag-fields"] = flagged

	nan := []filtering.Delivery{
		entry(1100, testEpoch, f64(1)),
		entry(1101, testEpoch.Add(time.Second), f64(2)),
	}
	nan[0].RSSI = math.NaN()
	nan[1].RSSI = math.Inf(-1)
	blocks["rssi-extremes"] = nan

	// Exercises every Gorilla branch: repeats (xor 0), small drift
	// (window reuse), window changes, >31 leading zeros, full-width XOR.
	blocks["gorilla-branches"] = []filtering.Delivery{
		entry(1200, testEpoch, u64(0)),
		entry(1201, testEpoch.Add(time.Second), u64(0)),
		entry(1202, testEpoch.Add(2*time.Second), u64(1<<40)),
		entry(1203, testEpoch.Add(3*time.Second), u64(1<<40|1<<38)),
		entry(1204, testEpoch.Add(4*time.Second), u64(1<<40|1<<38)),
		entry(1205, testEpoch.Add(5*time.Second), u64(1)),
		entry(1206, testEpoch.Add(6*time.Second), u64(math.MaxUint64)),
		entry(1207, testEpoch.Add(7*time.Second), u64(1<<63)),
		entry(1208, testEpoch.Add(8*time.Second), u64(1<<63|0xFF)),
	}

	return blocks
}

func TestCodecRoundTrip(t *testing.T) {
	for name, block := range testBlocks() {
		for _, c := range allCodecs() {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				roundTrip(t, c, block)
			})
		}
	}
}

// TestCodecDecodeAppends checks Decode appends to a non-empty dst and
// stamps the caller's stream, the way the store's read path stitches
// multiple cold blocks into one scratch slice.
func TestCodecDecodeAppends(t *testing.T) {
	block := testBlocks()["ramp-float"]
	enc := Gorilla.Encode(nil, block)
	prefix := []filtering.Delivery{entry(1, testEpoch, []byte("sentinel"))}
	var sc Scratch
	got, err := Gorilla.Decode(prefix, testStream, enc, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(block) {
		t.Fatalf("got %d entries, want %d", len(got), 1+len(block))
	}
	if string(got[0].Msg.Payload) != "sentinel" {
		t.Fatalf("prefix clobbered: %q", got[0].Msg.Payload)
	}
	if got[1].StoreSeq != block[0].StoreSeq {
		t.Fatalf("first appended entry StoreSeq %d", got[1].StoreSeq)
	}
}

// TestCodecScratchReuse checks that a pooled scratch can decode blocks
// back to back without cross-contamination.
func TestCodecScratchReuse(t *testing.T) {
	blocks := testBlocks()
	var sc Scratch
	for _, name := range []string{"text-repeat", "constant-float", "incompressible"} {
		for _, c := range allCodecs() {
			enc := c.Encode(nil, blocks[name])
			got, err := c.Decode(nil, testStream, enc, &sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			for i := range got {
				if !bytes.Equal(got[i].Msg.Payload, blocks[name][i].Msg.Payload) {
					t.Fatalf("%s/%s[%d]: payload mismatch after reuse", c.Name(), name, i)
				}
			}
		}
	}
}

// TestCodecScratchAttach checks the keep-what-you-decode mode: with a
// caller-owned buffer attached, consecutive decodes append their payload
// bytes to it — whether it has room or has to grow — and the deliveries
// stay intact after the buffer is detached and the scratch goes back to
// recycling its own.
func TestCodecScratchAttach(t *testing.T) {
	blocks := testBlocks()
	names := []string{"text-repeat", "constant-float", "incompressible"}
	for _, c := range allCodecs() {
		for _, room := range []int{0, 1 << 16} {
			var sc Scratch
			if _, err := c.Decode(nil, testStream, c.Encode(nil, blocks["single"]), &sc); err != nil {
				t.Fatal(err) // gives the scratch a recycled buffer to get back
			}
			owned := make([]byte, 0, room)
			sc.Attach(owned)
			var got []filtering.Delivery
			for _, name := range names {
				var err error
				if got, err = c.Decode(got, testStream, c.Encode(nil, blocks[name]), &sc); err != nil {
					t.Fatalf("%s/%s: %v", c.Name(), name, err)
				}
			}
			owned = sc.Detach()
			// Recycle the scratch: nothing decoded above may move.
			if _, err := c.Decode(nil, testStream, c.Encode(nil, blocks["incompressible"]), &sc); err != nil {
				t.Fatal(err)
			}
			i, total := 0, 0
			for _, name := range names {
				for _, want := range blocks[name] {
					if !bytes.Equal(got[i].Msg.Payload, want.Msg.Payload) {
						t.Fatalf("%s room=%d %s: entry %d payload %x, want %x", c.Name(), room, name, i, got[i].Msg.Payload, want.Msg.Payload)
					}
					total += len(want.Msg.Payload)
					i++
				}
			}
			if len(owned) != total {
				t.Fatalf("%s room=%d: attached buffer holds %d bytes, the payloads %d", c.Name(), room, len(owned), total)
			}
			if room > 0 && len(got[0].Msg.Payload) > 0 && &got[0].Msg.Payload[0] != &owned[0] {
				t.Fatalf("%s: payloads do not live in the attached buffer", c.Name())
			}
		}
	}
}

func TestCodecCompresses(t *testing.T) {
	blocks := testBlocks()
	for _, tc := range []struct {
		codec Codec
		block string
	}{
		{Gorilla, "constant-float"},
		{Gorilla, "ramp-float"},
		{RLE, "constant-float"},
		{LZ, "text-repeat"},
	} {
		enc := len(tc.codec.Encode(nil, blocks[tc.block]))
		rawLen := len(Raw.Encode(nil, blocks[tc.block]))
		if enc >= rawLen {
			t.Errorf("%s on %s: %d bytes, raw is %d", tc.codec.Name(), tc.block, enc, rawLen)
		}
	}
}

// TestCodecDecodeCorrupt feeds every truncation of valid encodings and a
// set of mutations to every codec: decoders must return ErrCorrupt (or
// succeed, for mutations that stay well-formed) and never panic.
func TestCodecDecodeCorrupt(t *testing.T) {
	blocks := testBlocks()
	var sc Scratch
	for _, c := range allCodecs() {
		for name, block := range blocks {
			enc := c.Encode(nil, block)
			for cut := 0; cut < len(enc); cut++ {
				if _, err := c.Decode(nil, testStream, enc[:cut], &sc); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s/%s cut=%d: non-corrupt error %v", c.Name(), name, cut, err)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(enc))))
			for trial := 0; trial < 100; trial++ {
				mut := append([]byte(nil), enc...)
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
				if _, err := c.Decode(nil, testStream, mut, &sc); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s/%s mutation: non-corrupt error %v", c.Name(), name, err)
				}
			}
		}
		if _, err := c.Decode(nil, testStream, nil, &sc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: empty input: %v", c.Name(), err)
		}
	}
}

func TestChoose(t *testing.T) {
	blocks := testBlocks()
	for _, tc := range []struct {
		block string
		want  Codec
	}{
		{"constant-float", RLE},
		{"text-repeat", RLE}, // identical payloads repeat: runs win
		{"ramp-float", Gorilla},
		{"noisy-float-gaps", Gorilla},
		{"incompressible", LZ},
		{"non-monotonic-ts", Raw}, // 1-byte payloads: nothing to model
	} {
		if got := Choose(blocks[tc.block]); got.ID() != tc.want.ID() {
			t.Errorf("Choose(%s) = %s, want %s", tc.block, got.Name(), tc.want.Name())
		}
	}
	if got := Choose(nil); got.ID() != IDRaw {
		t.Errorf("Choose(empty) = %s, want raw", got.Name())
	}

	// Varied text with little duplication must go to LZ, not RLE.
	var varied []filtering.Delivery
	for i := 0; i < 16; i++ {
		varied = append(varied, entry(uint64(2000+i), testEpoch.Add(time.Duration(i)*time.Second),
			[]byte("reading number "+string(rune('a'+i))+" from the sensor")))
	}
	if got := Choose(varied); got.ID() != IDLZ {
		t.Errorf("Choose(varied text) = %s, want lz", got.Name())
	}
}

func TestByIDByName(t *testing.T) {
	for _, c := range allCodecs() {
		byID, ok := ByID(c.ID())
		if !ok || byID.Name() != c.Name() {
			t.Errorf("ByID(%d) = %v, %v", c.ID(), byID, ok)
		}
		byName, ok := ByName(c.Name())
		if !ok || byName.ID() != c.ID() {
			t.Errorf("ByName(%q) = %v, %v", c.Name(), byName, ok)
		}
	}
	if _, ok := ByID(idCount); ok {
		t.Error("ByID(idCount) should fail")
	}
	if _, ok := ByName("zstd"); ok {
		t.Error(`ByName("zstd") should fail`)
	}
}

func TestPickerFor(t *testing.T) {
	blocks := testBlocks()
	for _, name := range []string{"raw", "gorilla", "rle", "lz"} {
		p, err := PickerFor(name)
		if err != nil {
			t.Fatalf("PickerFor(%q): %v", name, err)
		}
		if got := p(blocks["ramp-float"]); got.Name() != name {
			t.Errorf("PickerFor(%q) picked %s", name, got.Name())
		}
	}
	p, err := PickerFor("auto")
	if err != nil {
		t.Fatal(err)
	}
	if got := p(blocks["ramp-float"]); got.ID() != IDGorilla {
		t.Errorf("auto picked %s for ramp-float", got.Name())
	}
	if _, err := PickerFor("snappy"); err == nil {
		t.Error("PickerFor(snappy) should fail")
	}
	names := Names()
	if names[len(names)-1] != "auto" {
		t.Errorf("Names() = %v, want auto last", names)
	}
}

// TestLZRoundTripLarge pushes the LZ match finder across hash collisions,
// long matches (chained tokens) and long literal runs.
func TestLZRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	page := make([]byte, 4096)
	rng.Read(page)
	long := bytes.Repeat([]byte("abcdefgh"), 200) // 1600-byte match chain
	var block []filtering.Delivery
	payloads := [][]byte{page, long, page[:1000], long[:333], page[2000:]}
	for i, p := range payloads {
		block = append(block, entry(uint64(3000+i), testEpoch.Add(time.Duration(i)*time.Second), p))
	}
	roundTrip(t, LZ, block)
	if enc := LZ.Encode(nil, block); len(enc) >= len(Raw.Encode(nil, block)) {
		t.Errorf("LZ failed to compress repeated pages: %d bytes", len(enc))
	}
}
