// Package geo provides the small amount of planar geometry shared by the
// sensor field, the receiver/transmitter arrays, the location service and
// the message replicator: points, rectangles, circles and weighted
// centroids.
//
// Coordinates are in metres on a flat plane, which is the model the paper
// implies for a deployed sensor field (receivers with circular reception
// zones, sensors roaming in and out of coverage).
package geo

import (
	"errors"
	"fmt"
	"math"
)

// Point is a position on the field plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as radio range checks.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Unit returns the unit vector in the direction of p, or the zero point if
// p is the origin.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return Point{}
	}
	return p.Scale(1 / n)
}

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String formats the point as "(x, y)" with two decimals.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect with Min == Max is empty but valid.
type Rect struct {
	Min, Max Point
}

// RectWH returns the rectangle anchored at (x, y) with width w and height h.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Min: Point{x, y}, Max: Point{x + w, y + h}}
}

// Dx returns the width of r.
func (r Rect) Dx() float64 { return r.Max.X - r.Min.X }

// Dy returns the height of r.
func (r Rect) Dy() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Dx() * r.Dy() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Intersects reports whether r and s overlap (touching edges count).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Circle is a disc with a centre and radius, used for reception and
// transmission coverage zones and for location-uncertainty areas.
type Circle struct {
	Center Point
	R      float64
}

// contains reports whether p lies inside c (inclusive of the boundary).
func (c Circle) contains(p Point) bool {
	return c.Center.DistSq(p) <= c.R*c.R
}

// intersectsCircle reports whether c and d overlap.
func (c Circle) intersectsCircle(d Circle) bool {
	rr := c.R + d.R
	return c.Center.DistSq(d.Center) <= rr*rr
}

// ErrNoWeight is returned by WeightedCentroid when the total weight is not
// strictly positive.
var ErrNoWeight = errors.New("geo: total weight must be positive")

// WeightedCentroid returns the weighted mean of points. It is the estimator
// the location service uses to infer a sensor position from the receivers
// that heard it, weighted by received signal strength. Weights must be
// non-negative and sum to a positive value; len(points) must equal
// len(weights).
func WeightedCentroid(points []Point, weights []float64) (Point, error) {
	if len(points) != len(weights) {
		return Point{}, fmt.Errorf("geo: %d points but %d weights", len(points), len(weights))
	}
	var sum Point
	var total float64
	for i, p := range points {
		w := weights[i]
		if w < 0 {
			return Point{}, fmt.Errorf("geo: negative weight %v at index %d", w, i)
		}
		sum.X += p.X * w
		sum.Y += p.Y * w
		total += w
	}
	if total <= 0 {
		return Point{}, ErrNoWeight
	}
	return sum.Scale(1 / total), nil
}
