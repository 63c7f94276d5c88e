package codec

import (
	"math/rand"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
)

// benchBlock builds a 64-entry block of the named synthetic series, the
// block size the store seals by default.
func benchBlock(kind string) []filtering.Delivery {
	rng := rand.New(rand.NewSource(42))
	at := time.Unix(1_700_000_000, 0)
	block := make([]filtering.Delivery, 0, 64)
	for i := 0; i < 64; i++ {
		var p []byte
		switch kind {
		case "constant":
			p = f64(21.5)
		case "ramp":
			p = f64(20 + 0.125*float64(i))
		case "noisy-float":
			p = f64(20 + rng.NormFloat64()*0.5)
		case "text":
			p = []byte("temp=21.5C humidity=40% status=nominal battery=ok")
		}
		block = append(block, entry(uint64(1000+i), at.Add(time.Duration(i)*time.Second), p))
	}
	return block
}

func benchKinds() []string { return []string{"constant", "ramp", "noisy-float", "text"} }

// rawSize is the uncompressed payload+overhead baseline used for the
// reported compression ratio: what the hot ring holds per entry (payload
// bytes plus the per-slot delivery header).
func rawSize(block []filtering.Delivery) int {
	const slotHeader = 104 // approximate in-memory size of a ring slot's Delivery
	total := 0
	for i := range block {
		total += slotHeader + len(block[i].Msg.Payload)
	}
	return total
}

func BenchmarkStoreCodecEncode(b *testing.B) {
	for _, kind := range benchKinds() {
		block := benchBlock(kind)
		for _, c := range allCodecs() {
			b.Run(c.Name()+"/"+kind, func(b *testing.B) {
				buf := c.Encode(nil, block)
				encLen := len(buf)
				b.SetBytes(int64(rawSize(block)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = c.Encode(buf[:0], block)
				}
				b.StopTimer()
				b.ReportMetric(float64(encLen)/float64(len(block)), "bytes/msg")
				b.ReportMetric(float64(rawSize(block))/float64(encLen), "ratio")
			})
		}
		b.Run("auto/"+kind, func(b *testing.B) {
			c := choose(block)
			b.ReportMetric(float64(c.ID()), "codec-id")
			buf := c.Encode(nil, block)
			b.SetBytes(int64(rawSize(block)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = choose(block).Encode(buf[:0], block)
			}
		})
	}
}

func BenchmarkStoreCodecDecode(b *testing.B) {
	for _, kind := range benchKinds() {
		block := benchBlock(kind)
		for _, c := range allCodecs() {
			enc := c.Encode(nil, block)
			b.Run(c.Name()+"/"+kind, func(b *testing.B) {
				var sc Scratch
				dst := make([]filtering.Delivery, 0, len(block))
				b.SetBytes(int64(rawSize(block)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					dst, err = c.Decode(dst[:0], testStream, enc, &sc)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreCodecBytesPerMessage is not a timing benchmark: it
// reports the retained-bytes-per-message figure each codec achieves on
// the synthetic series, the number the ISSUE's ≥5× criterion is about.
func BenchmarkStoreCodecBytesPerMessage(b *testing.B) {
	for _, kind := range benchKinds() {
		block := benchBlock(kind)
		for _, c := range allCodecs() {
			b.Run(c.Name()+"/"+kind, func(b *testing.B) {
				var enc []byte
				for i := 0; i < b.N; i++ {
					enc = c.Encode(enc[:0], block)
				}
				b.ReportMetric(float64(len(enc))/float64(len(block)), "bytes/msg")
				b.ReportMetric(float64(rawSize(block))/float64(len(enc)), "ratio")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}
