package geo

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// bruteForce mirrors the queries a Grid answers, over a plain map.
type bruteForce map[int]Circle

func (b bruteForce) covering(p Point) []int {
	var ids []int
	for id, c := range b {
		if c.contains(p) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func (b bruteForce) intersecting(q Circle) []int {
	var ids []int
	for id, c := range b {
		if c.intersectsCircle(q) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	slices.Sort(out)
	return out
}

func TestGridValidation(t *testing.T) {
	for _, cell := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v): want panic", cell)
				}
			}()
			NewGrid(cell)
		}()
	}
	g := NewGrid(10)
	g.Insert(1, Circle{Center: Pt(0, 0), R: 5})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Insert: want panic")
			}
		}()
		g.Insert(1, Circle{Center: Pt(1, 1), R: 5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Move of unknown id: want panic")
			}
		}()
		g.Move(2, Circle{Center: Pt(1, 1), R: 5})
	}()
	if g.Remove(99) {
		t.Error("Remove of unknown id reported true")
	}
	if !g.Remove(1) || len(g.items) != 0 {
		t.Error("Remove of known id failed")
	}
}

// TestGridQueryEqualsBruteForceProperty drives a random op sequence
// (insert/move/remove, wildly mixed radii including oversized entries)
// and checks 10k random point and circle queries against the brute-force
// filter after every phase.
func TestGridQueryEqualsBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0FFEE, 0xD00D))
	const fieldSize = 2000.0
	randPoint := func() Point {
		return Pt(rng.Float64()*fieldSize-fieldSize/2, rng.Float64()*fieldSize-fieldSize/2)
	}
	randRadius := func() float64 {
		switch rng.IntN(10) {
		case 0:
			return 0 // degenerate: contains only its centre
		case 1:
			return 5000 + rng.Float64()*5000 // oversized for a 25 m cell
		default:
			return rng.Float64() * 120
		}
	}

	g := NewGrid(25)
	ref := bruteForce{}
	nextID := 0

	mutate := func(ops int) {
		for i := 0; i < ops; i++ {
			switch op := rng.IntN(10); {
			case op < 5 || len(ref) == 0: // insert
				c := Circle{Center: randPoint(), R: randRadius()}
				g.Insert(nextID, c)
				ref[nextID] = c
				nextID++
			case op < 8: // move a random existing entry
				for id := range ref {
					c := Circle{Center: randPoint(), R: randRadius()}
					g.Move(id, c)
					ref[id] = c
					break
				}
			default: // remove
				for id := range ref {
					if !g.Remove(id) {
						t.Fatalf("Remove(%d) = false for live entry", id)
					}
					delete(ref, id)
					break
				}
			}
		}
		if len(g.items) != len(ref) {
			t.Fatalf("entries = %d, want %d", len(g.items), len(ref))
		}
	}

	check := func(queries int) {
		t.Helper()
		for i := 0; i < queries; i++ {
			p := randPoint()
			got := sortedCopy(g.AppendCovering(nil, p))
			want := ref.covering(p)
			if !slices.Equal(got, want) {
				t.Fatalf("AppendCovering(%v) = %v, want %v", p, got, want)
			}
			q := Circle{Center: randPoint(), R: randRadius()}
			gotC := g.AppendIntersecting(nil, q)
			wantC := ref.intersecting(q)
			if !slices.Equal(gotC, wantC) {
				t.Fatalf("AppendIntersecting(%v) = %v, want %v", q, gotC, wantC)
			}
		}
	}

	mutate(300)
	check(4000)
	mutate(500) // churn: moves and removes against the same entries
	check(4000)
	mutate(200)
	check(2000)
}

// TestGridPointQueryOrderIsInsertionOrder pins the determinism contract
// the radio medium relies on: entries sharing a cell come back in attach
// (insertion) order.
func TestGridPointQueryOrderIsInsertionOrder(t *testing.T) {
	g := NewGrid(100)
	for id := 0; id < 8; id++ {
		g.Insert(id, Circle{Center: Pt(float64(id), 0), R: 50})
	}
	got := g.AppendCovering(nil, Pt(4, 0))
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("order = %v, want insertion order %v", got, want)
	}
	// Removing from the middle preserves the relative order of the rest.
	g.Remove(3)
	got = g.AppendCovering(nil, Pt(4, 0))
	want = []int{0, 1, 2, 4, 5, 6, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("order after remove = %v, want %v", got, want)
	}
}

// TestGridMoveWithinCellKeepsEntryFindable covers the cheap Move path
// (same cell range, no relink) still updating the circle used for exact
// checks.
func TestGridMoveWithinCellKeepsEntryFindable(t *testing.T) {
	g := NewGrid(1000)
	g.Insert(7, Circle{Center: Pt(100, 100), R: 10})
	g.Move(7, Circle{Center: Pt(130, 100), R: 10}) // same cell, new centre
	if got := g.AppendCovering(nil, Pt(100, 100)); len(got) != 0 {
		t.Fatalf("stale circle still matches old centre: %v", got)
	}
	if got := g.AppendCovering(nil, Pt(130, 100)); !slices.Equal(got, []int{7}) {
		t.Fatalf("moved entry not found: %v", got)
	}
}

func BenchmarkGridPointQuery(b *testing.B) {
	g := NewGrid(50)
	rng := rand.New(rand.NewPCG(1, 2))
	for id := 0; id < 1024; id++ {
		g.Insert(id, Circle{Center: Pt(rng.Float64()*5000, rng.Float64()*5000), R: 60})
	}
	dst := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.AppendCovering(dst[:0], Pt(2500, 2500))
	}
}
