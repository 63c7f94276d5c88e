package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, 4)), Pt(4, 6)},
		{"sub", Pt(1, 2).Sub(Pt(3, 4)), Pt(-2, -2)},
		{"scale", Pt(1, -2).Scale(2.5), Pt(2.5, -5)},
		{"lerp start", Pt(0, 0).Lerp(Pt(10, 20), 0), Pt(0, 0)},
		{"lerp end", Pt(0, 0).Lerp(Pt(10, 20), 1), Pt(10, 20)},
		{"lerp mid", Pt(0, 0).Lerp(Pt(10, 20), 0.5), Pt(5, 10)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEqual(tt.got.X, tt.want.X) || !almostEqual(tt.got.Y, tt.want.Y) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 1), Pt(1, 1), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"pythagoras", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.DistSq(tt.q); !almostEqual(got, tt.want*tt.want) {
				t.Errorf("DistSq = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestUnit(t *testing.T) {
	if got := (Point{}).Unit(); got != (Point{}) {
		t.Errorf("Unit of origin = %v, want origin", got)
	}
	u := Pt(3, 4).Unit()
	if !almostEqual(u.Norm(), 1) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
}

func TestRect(t *testing.T) {
	r := RectWH(0, 0, 10, 20)
	if got := r.Dx(); got != 10 {
		t.Errorf("Dx = %v, want 10", got)
	}
	if got := r.Dy(); got != 20 {
		t.Errorf("Dy = %v, want 20", got)
	}
	if got := r.Area(); got != 200 {
		t.Errorf("Area = %v, want 200", got)
	}
	if got := r.Center(); got != Pt(5, 10) {
		t.Errorf("Center = %v, want (5,10)", got)
	}

	tests := []struct {
		name string
		p    Point
		in   bool
	}{
		{"inside", Pt(5, 5), true},
		{"on corner", Pt(0, 0), true},
		{"on edge", Pt(10, 5), true},
		{"outside x", Pt(11, 5), false},
		{"outside y", Pt(5, -1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.in {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.in)
			}
		})
	}
}

func TestRectClamp(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	tests := []struct {
		p, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-5, 5), Pt(0, 5)},
		{Pt(15, 15), Pt(10, 10)},
		{Pt(5, -3), Pt(5, 0)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlapping", RectWH(5, 5, 10, 10), true},
		{"touching edge", RectWH(10, 0, 5, 5), true},
		{"disjoint", RectWH(20, 20, 5, 5), false},
		{"contained", RectWH(2, 2, 2, 2), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(a); got != tt.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Center: Pt(0, 0), R: 5}
	if !c.contains(Pt(3, 4)) {
		t.Error("point on boundary should be contained")
	}
	if c.contains(Pt(4, 4)) {
		t.Error("point outside should not be contained")
	}
	if !c.intersectsCircle(Circle{Center: Pt(8, 0), R: 3}) {
		t.Error("touching circles should intersect")
	}
	if c.intersectsCircle(Circle{Center: Pt(20, 0), R: 3}) {
		t.Error("distant circles should not intersect")
	}
}

func TestWeightedCentroid(t *testing.T) {
	t.Run("equal weights", func(t *testing.T) {
		got, err := WeightedCentroid([]Point{Pt(0, 0), Pt(10, 0)}, []float64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != Pt(5, 0) {
			t.Errorf("got %v, want (5,0)", got)
		}
	})
	t.Run("skewed weights", func(t *testing.T) {
		got, err := WeightedCentroid([]Point{Pt(0, 0), Pt(10, 0)}, []float64{3, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got.X, 2.5) {
			t.Errorf("got %v, want x=2.5", got)
		}
	})
	t.Run("zero total weight", func(t *testing.T) {
		if _, err := WeightedCentroid([]Point{Pt(1, 1)}, []float64{0}); err == nil {
			t.Error("want error for zero total weight")
		}
	})
	t.Run("negative weight", func(t *testing.T) {
		if _, err := WeightedCentroid([]Point{Pt(1, 1)}, []float64{-1}); err == nil {
			t.Error("want error for negative weight")
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		if _, err := WeightedCentroid([]Point{Pt(1, 1)}, []float64{1, 2}); err == nil {
			t.Error("want error for length mismatch")
		}
	})
}

// Property: a weighted centroid with non-negative weights always lies inside
// the bounding box of its input points.
func TestWeightedCentroidInBoundingBox(t *testing.T) {
	f := func(xs, ys []int8, ws []uint8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if len(ws) < n {
			n = len(ws)
		}
		if n == 0 {
			return true
		}
		points := make([]Point, n)
		weights := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			points[i] = Pt(float64(xs[i]), float64(ys[i]))
			weights[i] = float64(ws[i])
			total += weights[i]
		}
		c, err := WeightedCentroid(points, weights)
		if total <= 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		box := Rect{Min: points[0], Max: points[0]}
		for _, p := range points[1:] {
			box.Min = Pt(math.Min(box.Min.X, p.X), math.Min(box.Min.Y, p.Y))
			box.Max = Pt(math.Max(box.Max.X, p.X), math.Max(box.Max.Y, p.Y))
		}
		const eps = 1e-9
		return c.X >= box.Min.X-eps && c.X <= box.Max.X+eps &&
			c.Y >= box.Min.Y-eps && c.Y <= box.Max.Y+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
