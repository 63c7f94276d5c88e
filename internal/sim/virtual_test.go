package sim

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// scriptDelays are the delays a script draws from: few enough that
// deadlines tie often, with zero and negative ones among them.
var scriptDelays = []time.Duration{0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, time.Second, -time.Millisecond}

// nestedOf is what the callback of event id does when it fires: every
// third event schedules one follow-up, at a delay its id picks (zero
// included) and with or without a handle.
func nestedOf(id int) (d time.Duration, afterFunc, ok bool) {
	if id%3 != 0 {
		return 0, false, false
	}
	return scriptDelays[id/3%len(scriptDelays)], id%2 == 0, true
}

// firing is one callback run: the event's id and the clock's offset from
// its start when it ran.
type firing struct {
	id int
	at time.Duration
}

// modelClock is the reference VirtualClock: a list of pending events
// kept sorted by (deadline, seq). It shares no code with the heap it
// checks. Events are numbered in the order they are scheduled.
type modelClock struct {
	now     time.Duration
	seq     uint64
	nextID  int
	pending []modelEvent
	fired   []firing
}

type modelEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

func (m *modelClock) schedule(d time.Duration) {
	m.pending = append(m.pending, modelEvent{at: m.now + max(d, 0), seq: m.seq, id: m.nextID})
	m.seq++
	m.nextID++
	slices.SortFunc(m.pending, func(a, b modelEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

// stop removes id's event if it is still pending and reports whether it
// was.
func (m *modelClock) stop(id int) bool {
	i := slices.IndexFunc(m.pending, func(e modelEvent) bool { return e.id == id })
	if i < 0 {
		return false
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

// run fires every event due at or before target in order, follow-ups
// included, and then moves the clock to target if settle is set.
func (m *modelClock) run(target time.Duration, settle bool) {
	for len(m.pending) > 0 && m.pending[0].at <= target {
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.now = max(m.now, e.at)
		m.fired = append(m.fired, firing{e.id, m.now})
		if d, _, ok := nestedOf(e.id); ok {
			m.schedule(d)
		}
	}
	if settle {
		m.now = max(m.now, target)
	}
}

// TestVirtualClockMatchesModel drives the heap clock and the model with the
// same seeded random script — AfterFunc, ScheduleFunc, Stop of any handle
// ever returned, Advance and RunAll — and checks after every step that both
// fired the same callbacks at the same instants, Stop answered alike, and
// Pending, NextDeadline and Now agree. A failure names its seed.
func TestVirtualClockMatchesModel(t *testing.T) {
	const seeds, steps = 300, 200
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		c := NewVirtualClock(testEpoch)
		m := &modelClock{}
		var fired []firing
		var handles []Timer // by event id; nil for ScheduleFunc events

		var schedule func(d time.Duration, afterFunc bool)
		schedule = func(d time.Duration, afterFunc bool) {
			id := len(handles)
			fn := func() {
				fired = append(fired, firing{id, c.Now().Sub(testEpoch)})
				if d, af, ok := nestedOf(id); ok {
					schedule(d, af)
				}
			}
			if afterFunc {
				handles = append(handles, c.AfterFunc(d, fn))
			} else {
				handles = append(handles, nil)
				c.ScheduleFunc(d, fn)
			}
		}

		for step := 0; step < steps; step++ {
			var op string
			switch r := rng.IntN(100); {
			case r < 35:
				op = "AfterFunc"
				d := scriptDelays[rng.IntN(len(scriptDelays))]
				schedule(d, true)
				m.schedule(d)
			case r < 60:
				op = "ScheduleFunc"
				d := scriptDelays[rng.IntN(len(scriptDelays))]
				schedule(d, false)
				m.schedule(d)
			case r < 80:
				op = "Stop"
				var ids []int
				for id, h := range handles {
					if h != nil {
						ids = append(ids, id)
					}
				}
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.IntN(len(ids))]
				if got, want := handles[id].Stop(), m.stop(id); got != want {
					t.Fatalf("seed %d step %d: Stop(event %d) = %v, model %v", seed, step, id, got, want)
				}
			case r < 97:
				op = "Advance"
				d := scriptDelays[rng.IntN(len(scriptDelays))]
				target := m.now + max(d, 0)
				c.Advance(d)
				m.run(target, true)
			default:
				op = "RunAll"
				c.RunAll()
				m.run(math.MaxInt64, false)
			}
			if !slices.Equal(fired, m.fired) {
				t.Fatalf("seed %d step %d (%s): fired %v, model %v", seed, step, op, fired, m.fired)
			}
			if got, want := c.Pending(), len(m.pending); got != want {
				t.Fatalf("seed %d step %d (%s): Pending = %d, model %d", seed, step, op, got, want)
			}
			dl, ok := c.NextDeadline()
			if ok != (len(m.pending) > 0) || ok && dl.Sub(testEpoch) != m.pending[0].at {
				t.Fatalf("seed %d step %d (%s): NextDeadline = %v %v, model %v", seed, step, op, dl, ok, m.pending)
			}
			if got, want := c.Now().Sub(testEpoch), m.now; got != want {
				t.Fatalf("seed %d step %d (%s): Now = +%v, model +%v", seed, step, op, got, want)
			}
		}
	}
}
