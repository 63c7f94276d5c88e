package radio

import (
	"math/bits"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/sim"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func fixed(p geo.Point) func() geo.Point { return func() geo.Point { return p } }

type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) deliver(f Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func TestBroadcastReachesListenerInRange(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(10, 0)), Radius: 50, Deliver: c.deliver})

	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("hello"))
	clock.RunAll()

	if c.count() != 1 {
		t.Fatalf("deliveries = %d, want 1", c.count())
	}
	if string(c.frames[0].Data) != "hello" {
		t.Fatalf("data = %q", c.frames[0].Data)
	}
}

func TestBroadcastRangeLimits(t *testing.T) {
	tests := []struct {
		name      string
		listener  geo.Point
		radius    float64
		txRange   float64
		delivered bool
	}{
		{"inside both", geo.Pt(10, 0), 50, 50, true},
		{"outside tx range", geo.Pt(60, 0), 100, 50, false},
		{"outside rx radius", geo.Pt(10, 0), 5, 50, false},
		{"boundary exact", geo.Pt(50, 0), 50, 50, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			clock := sim.NewVirtualClock(epoch)
			m := NewMedium(clock, Params{})
			var c collector
			m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(tt.listener), Radius: tt.radius, Deliver: c.deliver})
			m.Broadcast(BandUplink, geo.Pt(0, 0), tt.txRange, []byte("x"))
			clock.RunAll()
			if got := c.count() == 1; got != tt.delivered {
				t.Errorf("delivered = %v, want %v", got, tt.delivered)
			}
		})
	}
}

func TestOverlappingReceiversDuplicate(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	// Three overlapping receivers all covering the origin — the paper's
	// §4.2: overlap "improves data reception but causes potential
	// duplication of data messages".
	for _, p := range []geo.Point{geo.Pt(5, 0), geo.Pt(0, 5), geo.Pt(-5, 0)} {
		m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(p), Radius: 20, Deliver: c.deliver})
	}
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("dup"))
	clock.RunAll()
	if c.count() != 3 {
		t.Fatalf("deliveries = %d, want 3 (one per overlapping receiver)", c.count())
	}
}

func TestBandsAreIsolated(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var up, down collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: up.deliver})
	m.Attach(BandDownlink, &Listener{Name: "sensor", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: down.deliver})

	m.Broadcast(BandUplink, geo.Pt(1, 1), 100, []byte("data"))
	m.Broadcast(BandDownlink, geo.Pt(1, 1), 100, []byte("ctrl"))
	clock.RunAll()

	if up.count() != 1 || down.count() != 1 {
		t.Fatalf("uplink=%d downlink=%d, want 1 and 1", up.count(), down.count())
	}
	if string(up.frames[0].Data) != "data" || string(down.frames[0].Data) != "ctrl" {
		t.Fatal("bands crossed over")
	}
}

func TestLossProbability(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{LossProb: 0.3, Seed: 7})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})

	const n = 2000
	for i := 0; i < n; i++ {
		m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte("x"))
	}
	clock.RunAll()

	got := c.count()
	if got < 1200 || got > 1600 {
		t.Fatalf("delivered %d of %d with 30%% loss, want ≈1400", got, n)
	}
	met := m.Metrics()
	if met.Lost.Value()+int64(got) != n {
		t.Fatalf("lost(%d)+delivered(%d) != broadcast(%d)", met.Lost.Value(), got, n)
	}
}

func TestTotalLoss(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{LossProb: 1})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})
	m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte("x"))
	clock.RunAll()
	if c.count() != 0 {
		t.Fatal("LossProb=1 should drop everything")
	}
}

func TestDelayJitterWithinBounds(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{DelayMin: 5 * time.Millisecond, DelayMax: 15 * time.Millisecond, Seed: 3})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})

	for i := 0; i < 200; i++ {
		m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte("x"))
	}
	clock.RunAll()

	if c.count() != 200 {
		t.Fatalf("delivered %d, want 200", c.count())
	}
	var sawMin, sawSpread bool
	for _, f := range c.frames {
		d := f.At.Sub(epoch)
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("delivery delay %v outside [5ms, 15ms]", d)
		}
		if d < 8*time.Millisecond {
			sawMin = true
		}
		if d > 12*time.Millisecond {
			sawSpread = true
		}
	}
	if !sawMin || !sawSpread {
		t.Error("jitter distribution suspiciously narrow")
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{CorruptProb: 1, Seed: 11})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})

	orig := []byte{0x00, 0x00, 0x00, 0x00}
	m.Broadcast(BandUplink, geo.Pt(1, 0), 100, orig)
	clock.RunAll()

	if c.count() != 1 {
		t.Fatalf("delivered %d, want 1", c.count())
	}
	diffBits := 0
	for i, b := range c.frames[0].Data {
		x := b ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

// TestDeliveriesAreIndependentCopies: no delivery aliases the caller's
// buffer, and a corrupted copy carries private bytes — it differs from its
// intact siblings, which share the hand-off's one buffer, in exactly one
// bit, and they are unchanged.
func TestDeliveriesAreIndependentCopies(t *testing.T) {
	const payload = "mutate-me"
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{CorruptProb: 0.5, Seed: 4})
	var c collector
	for i := 0; i < 16; i++ {
		m.Attach(BandUplink, &Listener{Name: "l", Position: fixed(geo.Pt(0, float64(i))), Radius: 100, Deliver: c.deliver})
	}

	buf := []byte(payload)
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, buf)
	buf[0] = 'X' // caller reuses its buffer immediately
	clock.RunAll()

	intact, corrupted := 0, 0
	for i, f := range c.frames {
		diffBits := 0
		for j := range f.Data {
			diffBits += bits.OnesCount8(f.Data[j] ^ payload[j])
		}
		switch diffBits {
		case 0:
			intact++
		case 1:
			corrupted++
			for j, g := range c.frames {
				if j != i && &g.Data[0] == &f.Data[0] {
					t.Fatalf("corrupted copy %d shares its bytes with copy %d", i, j)
				}
			}
		default:
			t.Fatalf("copy %d = %q: %d bits from what was broadcast", i, f.Data, diffBits)
		}
	}
	if intact < 2 || corrupted < 2 {
		t.Fatalf("%d intact and %d corrupted copies: the case is vacuous", intact, corrupted)
	}
	if got := m.Metrics().Corrupted.Value(); got != int64(corrupted) {
		t.Fatalf("Corrupted = %d, %d copies arrived corrupted", got, corrupted)
	}
}

func TestDetach(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	detach := m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})
	if m.Listeners(BandUplink) != 1 {
		t.Fatal("listener not attached")
	}
	detach()
	detach() // idempotent
	if m.Listeners(BandUplink) != 0 {
		t.Fatal("listener not detached")
	}
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("x"))
	clock.RunAll()
	if c.count() != 0 {
		t.Fatal("detached listener still receives")
	}
}

func TestMovingListenerHeardAtCurrentPosition(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	pos := geo.Pt(1000, 0) // out of range now
	m.Attach(BandDownlink, &Listener{Name: "sensor", Position: func() geo.Point { return pos }, Radius: 100, Deliver: c.deliver})

	m.Broadcast(BandDownlink, geo.Pt(0, 0), 100, []byte("miss"))
	pos = geo.Pt(10, 0) // sensor roams back into range
	m.Broadcast(BandDownlink, geo.Pt(0, 0), 100, []byte("hit"))
	clock.RunAll()

	if c.count() != 1 || string(c.frames[0].Data) != "hit" {
		t.Fatalf("frames = %d, want only the in-range broadcast", c.count())
	}
	if got := m.Metrics().OutOfRange.Value(); got != 1 {
		t.Fatalf("OutOfRange = %d, want 1", got)
	}
}

func TestMetricsAccounting(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})
	for i := 0; i < 10; i++ {
		m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("x"))
	}
	clock.RunAll()
	met := m.Metrics()
	if met.Broadcasts.Value() != 10 || met.Deliveries.Value() != 10 || met.Lost.Value() != 0 {
		t.Fatalf("metrics: broadcasts=%d deliveries=%d lost=%d", met.Broadcasts.Value(), met.Deliveries.Value(), met.Lost.Value())
	}
}

// TestLossAccountingCountsLostTowardReached pins the accounting
// contract: a frame that reaches listeners but loses every copy is NOT
// out-of-range — the loss process consumed it. OutOfRange strictly means
// "nobody's zone covered the transmitter".
func TestLossAccountingCountsLostTowardReached(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{LossProb: 1, Seed: 5})
	var c collector
	for _, p := range []geo.Point{geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(-1, 0)} {
		m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(p), Radius: 100, Deliver: c.deliver})
	}
	// In range of all three listeners; every copy lost.
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("doomed"))
	// In range of nobody.
	m.Broadcast(BandUplink, geo.Pt(5000, 5000), 10, []byte("nowhere"))
	clock.RunAll()

	met := m.Metrics()
	if got, want := met.Broadcasts.Value(), int64(2); got != want {
		t.Errorf("Broadcasts = %d, want %d", got, want)
	}
	if got, want := met.Lost.Value(), int64(3); got != want {
		t.Errorf("Lost = %d, want %d (one per reached listener)", got, want)
	}
	if got, want := met.Deliveries.Value(), int64(0); got != want {
		t.Errorf("Deliveries = %d, want %d", got, want)
	}
	if got, want := met.OutOfRange.Value(), int64(1); got != want {
		t.Errorf("OutOfRange = %d, want %d (total loss is not out-of-range)", got, want)
	}
	if c.count() != 0 {
		t.Errorf("delivered %d frames, want 0", c.count())
	}
}

// TestZeroLengthPayloadSkipsCorruption pins the corruption edge case: a
// zero-length payload has no byte to flip, so even CorruptProb=1
// delivers it unflipped and the Corrupted counter stays at zero.
func TestZeroLengthPayloadSkipsCorruption(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{CorruptProb: 1, Seed: 5})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})

	m.Broadcast(BandUplink, geo.Pt(1, 0), 100, nil)             // nothing to corrupt
	m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte{0xAB})    // corrupted
	m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte("hello")) // corrupted
	clock.RunAll()

	met := m.Metrics()
	if got, want := met.Deliveries.Value(), int64(3); got != want {
		t.Errorf("Deliveries = %d, want %d", got, want)
	}
	if got, want := met.Corrupted.Value(), int64(2); got != want {
		t.Errorf("Corrupted = %d, want %d (empty payload must not count)", got, want)
	}
	if len(c.frames[0].Data) != 0 {
		t.Errorf("empty payload delivered as %q", c.frames[0].Data)
	}
	if c.frames[1].Data[0] == 0xAB {
		t.Error("CorruptProb=1 delivered an unflipped byte")
	}
	if met.Lost.Value() != 0 || met.OutOfRange.Value() != 0 {
		t.Errorf("Lost = %d, OutOfRange = %d, want 0 and 0", met.Lost.Value(), met.OutOfRange.Value())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		clock := sim.NewVirtualClock(epoch)
		m := NewMedium(clock, Params{LossProb: 0.5, DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond, Seed: 99})
		var c collector
		m.Attach(BandUplink, &Listener{Name: "rx", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver})
		for i := 0; i < 100; i++ {
			m.Broadcast(BandUplink, geo.Pt(1, 0), 100, []byte{byte(i)})
		}
		clock.RunAll()
		var ids []int
		for _, f := range c.frames {
			ids = append(ids, int(f.Data[0]))
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNewMediumValidatesDelays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for DelayMax < DelayMin")
		}
	}()
	NewMedium(sim.NewVirtualClock(epoch), Params{DelayMin: 2, DelayMax: 1})
}

func TestAttachValidation(t *testing.T) {
	m := NewMedium(sim.NewVirtualClock(epoch), Params{})
	for _, tt := range []struct {
		name string
		band Band
		l    Listener
	}{
		{"bad band", Band(9), Listener{Position: fixed(geo.Pt(0, 0)), Deliver: func(Frame) {}}},
		{"nil position", BandUplink, Listener{Deliver: func(Frame) {}}},
		{"nil deliver", BandUplink, Listener{Position: fixed(geo.Pt(0, 0))}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			m.Attach(tt.band, &tt.l)
		})
	}
}
