package sensor

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// downlinkCast is one control frame offered to the downlink together with
// the sensor it was intact-addressed to: the destination a transmitter
// reads before the channel (or the script) damages the bytes.
type downlinkCast struct {
	dst   wire.SensorID
	frame []byte
}

// filterScriptSensors are the listening sensors; ids 5 and 7 are addressed
// too but nobody answers to them, and 7 is one bit away from 6 so a flipped
// target bit can land on a listener.
var filterScriptSensors = []wire.SensorID{1, 2, 3, 6}

// seededDownlink draws a stream of control frames: intact frames to
// listeners and to strangers, frames with one flipped bit (a foreign target
// corrupted into a listener's id among them), truncated frames, unknown
// streams, repeated update ids and out-of-order issue times.
func seededDownlink(seed uint64) []downlinkCast {
	rng := rand.New(rand.NewPCG(seed, 0xF17E))
	targets := append(slices.Clone(filterScriptSensors), 5, 7)
	ops := []wire.Op{wire.OpPing, wire.OpSetRate, wire.OpSetParam, wire.OpSetPayloadLimit}
	var casts []downlinkCast
	for i := 0; i < 120; i++ {
		dst := targets[rng.IntN(len(targets))]
		index := wire.StreamIndex(0)
		if rng.IntN(6) == 0 {
			index = 9 // a stream the sensor does not have: ignored, not acked
		}
		c := wire.ControlMessage{
			UpdateID: uint16(1 + rng.IntN(40)),
			Target:   wire.MustStreamID(dst, index),
			Op:       ops[rng.IntN(len(ops))],
			Param:    uint8(rng.IntN(4)),
			Value:    uint32(rng.IntN(3000)),
			Issued:   epoch.Add(time.Duration(rng.IntN(1000)) * time.Millisecond),
		}
		frame, err := c.Encode()
		if err != nil {
			panic(err)
		}
		switch rng.IntN(6) {
		case 0: // one flipped bit anywhere, the target included
			bit := rng.IntN(8 * len(frame))
			frame[bit/8] ^= 1 << (bit % 8)
		case 1: // a foreign target corrupted into a listener's id
			if dst == 7 {
				frame[5] ^= 1 // the sensor id's low byte: 7 → 6
			}
		case 2:
			frame = frame[:rng.IntN(len(frame))]
		}
		casts = append(casts, downlinkCast{dst: dst, frame: frame})
	}
	return casts
}

// downlinkOutcome is everything a foreign frame could have touched.
type downlinkOutcome struct {
	stats   Stats
	acks    []uint16
	params  map[uint8]uint32
	period  time.Duration
	limit   int
	lastSet [3]time.Time
}

// playDownlink offers the casts to the listening sensors over a lossy,
// jittery, corrupting channel, addressed (BroadcastTo with the intact
// destination) or not, and reports each sensor's outcome and how many
// copies the medium's address filter dropped.
func playDownlink(t *testing.T, casts []downlinkCast, seed uint64, energy EnergyParams, addressed bool) ([]downlinkOutcome, int64) {
	t.Helper()
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{
		LossProb: 0.2, CorruptProb: 0.2, DelayMin: time.Millisecond, DelayMax: 4 * time.Millisecond, Seed: seed,
	})
	var nodes []*Node
	for i, id := range filterScriptSensors {
		cfg := basicConfig(id)
		cfg.Capabilities = CapReceive
		cfg.Mobility = field.Static{P: geo.Pt(float64(i)*10, 0)}
		cfg.Streams[0].Enabled = false
		cfg.Energy = energy
		n, err := New(clock, medium, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		defer n.Stop()
		nodes = append(nodes, n)
	}
	for i, c := range casts {
		if addressed {
			medium.BroadcastTo(radio.BandDownlink, geo.Pt(0, 0), 1e9, uint32(c.dst), c.frame)
		} else {
			medium.Broadcast(radio.BandDownlink, geo.Pt(0, 0), 1e9, c.frame)
		}
		clock.Advance(time.Duration(i%3) * time.Millisecond)
	}
	clock.RunAll()
	out := make([]downlinkOutcome, len(nodes))
	for i, n := range nodes {
		n.mu.Lock()
		st := n.streams[0]
		out[i] = downlinkOutcome{
			acks:    slices.Clone(n.pendingAcks),
			params:  maps.Clone(n.params),
			period:  st.period,
			limit:   st.limit,
			lastSet: st.lastSet,
		}
		n.mu.Unlock()
		out[i].stats = n.Stats()
	}
	return out, medium.Metrics().Filtered.Value()
}

// TestAddressFilterMatchesUnaddressedDownlink is the sensor half of the
// address filter's contract: whether the downlink names each frame's
// addressee (so a free listener is never handed a foreign frame) or not
// (so every sensor decodes and discards), every sensor ends with the same
// counters, energy, queued acks and settings. A sensor that pays to listen
// must not filter at all, so its energy matches too.
func TestAddressFilterMatchesUnaddressedDownlink(t *testing.T) {
	for _, listen := range []struct {
		name    string
		energy  EnergyParams
		filters bool
	}{
		{"free", EnergyParams{}, true},
		{"paid", EnergyParams{RxPerByte: 0.25}, false},
	} {
		t.Run("listen="+listen.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				casts := seededDownlink(seed)
				want, _ := playDownlink(t, casts, seed, listen.energy, false)
				got, filtered := playDownlink(t, casts, seed, listen.energy, true)
				if (filtered > 0) != listen.filters {
					t.Fatalf("seed %d: the medium filtered %d copies", seed, filtered)
				}
				received := int64(0)
				for i := range want {
					received += want[i].stats.ControlsReceived
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("seed %d, sensor %d: addressed downlink gives\n  %+v\nunaddressed gives\n  %+v",
							seed, filterScriptSensors[i], got[i], want[i])
					}
				}
				if received == 0 {
					t.Fatalf("seed %d: no sensor accepted a frame: the script is vacuous", seed)
				}
			}
		})
	}
}
