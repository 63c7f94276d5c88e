package archive

import (
	"testing"

	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// FuzzManifestDecode pins the manifest decoding contract: arbitrary bytes
// — a scrambled, truncated or hostile on-disk manifest — must come back
// as an error or a valid record, never a panic, and a full replay over
// them must terminate with a consistent index.
func FuzzManifestDecode(f *testing.F) {
	// Seed with one intact record of each kind, plus truncations and a
	// flipped CRC, so the fuzzer starts on the format's edge.
	add := appendManifestRec(nil, &manifestRec{
		kind:   recAdd,
		stream: wire.StreamID(0x0701),
		ref: Ref{
			Codec: codec.IDRaw, FirstSeq: 10, LastSeq: 19,
			Count: 10, RawBytes: 128, Bytes: 64, LastUnix: 1e9,
		},
		off:     0,
		dataCRC: 0xDEADBEEF,
	})
	floor := appendManifestRec(nil, &manifestRec{kind: recFloor, stream: wire.StreamID(0x0701), floor: 15})
	forget := appendManifestRec(nil, &manifestRec{kind: recForget, stream: wire.StreamID(0x0701)})
	f.Add(add)
	f.Add(floor)
	f.Add(forget)
	f.Add(append(append([]byte(nil), add...), floor...))
	f.Add(add[:len(add)-3])
	bad := append([]byte(nil), add...)
	bad[0] ^= 0xFF
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{recAdd})

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, n, err := decodeManifestRec(raw)
		if err == nil {
			if n <= 0 || n > len(raw) {
				t.Fatalf("decoded record claims %d of %d bytes", n, len(raw))
			}
			if rec.kind != recAdd && rec.kind != recFloor && rec.kind != recForget {
				t.Fatalf("decoded unknown kind %d without error", rec.kind)
			}
			if rec.kind == recAdd && rec.ref.LastSeq < rec.ref.FirstSeq {
				t.Fatalf("decoded inverted seq range %d..%d", rec.ref.FirstSeq, rec.ref.LastSeq)
			}
		}
		// Replay must terminate and leave only internally consistent
		// streams whatever the input — this is the crash-recovery path.
		streams := make(map[wire.StreamID]*fsState)
		committed, records, tornRefs := replayManifest(raw, 1<<20, streams)
		if committed < 0 || records < 0 || tornRefs < 0 {
			t.Fatalf("negative replay summary: %d %d %d", committed, records, tornRefs)
		}
		for id, fs := range streams {
			for i := range fs.refs {
				if fs.refs[i].LastSeq < fs.floor {
					t.Fatalf("stream %v: ref below floor survived replay", id)
				}
			}
		}
	})
}
