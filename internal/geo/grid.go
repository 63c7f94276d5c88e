package geo

import (
	"fmt"
	"math"
	"slices"
)

// Grid is a uniform-cell spatial index over coverage circles, shared by
// the simulated radio medium (which listeners can hear a transmission
// from a point?) and the Message Replicator (which transmitters' coverage
// intersects a location-estimate area?). Both are coverage-intersection
// queries, and both must cost O(nearby) rather than O(everything
// attached) for dense fields to scale.
//
// Each entry is a circle bucketed into every cell its bounding box
// overlaps, so a listener with radius R is found by a plain point query
// of the single cell containing the query point. Queries are
// deterministic: a point query yields entries in insertion order within
// the cell; a circle query visits cells in row-major order and returns
// ids deduplicated in ascending order. Queries never mutate the index,
// so any number of concurrent readers is safe as long as no Insert,
// Move or Remove runs concurrently.
//
// Entries whose circle would span more than maxEntryCells cells (a huge
// radius relative to the cell size) are kept on a small overflow list
// scanned by every query instead of being bucketed, bounding index
// memory at a mild query cost — tune the cell size towards the dominant
// radius so the overflow list stays short.
//
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell      float64
	inv       float64
	buckets   map[uint64][]*gridEntry
	items     map[int]*gridEntry
	oversized []*gridEntry
}

type gridEntry struct {
	id                     int
	c                      Circle
	minX, minY, maxX, maxY int32
	oversized              bool
}

// maxEntryCells caps how many cells one entry may be bucketed into
// before it is moved to the overflow list (32×32 cells ≈ a radius 16×
// the cell size).
const maxEntryCells = 1024

// NewGrid returns an empty index with the given cell edge length in
// metres. NewGrid panics on a non-positive or non-finite cell size (a
// configuration programming error). Entries perform best when the cell
// size is on the order of the typical coverage radius: each circle then
// occupies a handful of cells and a point query scans one small bucket.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic(fmt.Sprintf("geo: grid cell size %v must be positive and finite", cellSize))
	}
	return &Grid{
		cell:    cellSize,
		inv:     1 / cellSize,
		buckets: make(map[uint64][]*gridEntry),
		items:   make(map[int]*gridEntry),
	}
}

// cellCoord maps a coordinate to its cell index, clamped to the int32
// range. Clamping is monotonic, so entries and query points beyond the
// representable range still land in consistent (merely coarser) cells
// and are screened by the exact circle checks as usual.
func (g *Grid) cellCoord(v float64) int32 {
	f := math.Floor(v * g.inv)
	switch {
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(f)
	}
}

func cellKey(x, y int32) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func (g *Grid) setRange(e *gridEntry) {
	r := e.c.R
	if r < 0 || math.IsNaN(r) {
		r = 0
	}
	e.minX = g.cellCoord(e.c.Center.X - r)
	e.maxX = g.cellCoord(e.c.Center.X + r)
	e.minY = g.cellCoord(e.c.Center.Y - r)
	e.maxY = g.cellCoord(e.c.Center.Y + r)
	spanX := int64(e.maxX) - int64(e.minX) + 1
	spanY := int64(e.maxY) - int64(e.minY) + 1
	e.oversized = spanX*spanY > maxEntryCells
}

func (g *Grid) link(e *gridEntry) {
	if e.oversized {
		g.oversized = append(g.oversized, e)
		return
	}
	for y := e.minY; ; y++ {
		for x := e.minX; ; x++ {
			k := cellKey(x, y)
			g.buckets[k] = append(g.buckets[k], e)
			if x == e.maxX {
				break
			}
		}
		if y == e.maxY {
			break
		}
	}
}

// unlink removes e from the buckets of the given cell range, or from the
// overflow list when wasOversized is set.
func (g *Grid) unlink(e *gridEntry, minX, maxX, minY, maxY int32, wasOversized bool) {
	if wasOversized {
		if i := slices.Index(g.oversized, e); i >= 0 {
			g.oversized = slices.Delete(g.oversized, i, i+1)
		}
		return
	}
	for y := minY; ; y++ {
		for x := minX; ; x++ {
			k := cellKey(x, y)
			b := g.buckets[k]
			// slices.Delete preserves insertion order and clears the
			// vacated tail slot.
			if i := slices.Index(b, e); i >= 0 {
				b = slices.Delete(b, i, i+1)
			}
			if len(b) == 0 {
				delete(g.buckets, k)
			} else {
				g.buckets[k] = b
			}
			if x == maxX {
				break
			}
		}
		if y == maxY {
			break
		}
	}
}

// Insert indexes circle c under id. Insert panics on a duplicate id (a
// programming error — use Move to relocate an entry).
func (g *Grid) Insert(id int, c Circle) {
	if _, dup := g.items[id]; dup {
		panic(fmt.Sprintf("geo: grid id %d already inserted", id))
	}
	e := &gridEntry{id: id, c: c}
	g.setRange(e)
	g.items[id] = e
	g.link(e)
}

// Remove deletes the entry under id and reports whether it existed.
func (g *Grid) Remove(id int) bool {
	e, ok := g.items[id]
	if !ok {
		return false
	}
	g.unlink(e, e.minX, e.maxX, e.minY, e.maxY, e.oversized)
	delete(g.items, id)
	return true
}

// Move re-indexes id under a new circle. When the new circle occupies the
// same cell range the entry is updated in place without touching any
// bucket — the cheap steady-state path for a mobile listener drifting
// within a cell. Move panics on an unknown id.
func (g *Grid) Move(id int, c Circle) {
	e, ok := g.items[id]
	if !ok {
		panic(fmt.Sprintf("geo: grid id %d not inserted", id))
	}
	oldMinX, oldMaxX, oldMinY, oldMaxY := e.minX, e.maxX, e.minY, e.maxY
	oldOversized := e.oversized
	e.c = c
	g.setRange(e)
	if e.oversized == oldOversized &&
		(e.oversized || (e.minX == oldMinX && e.maxX == oldMaxX && e.minY == oldMinY && e.maxY == oldMaxY)) {
		return
	}
	g.unlink(e, oldMinX, oldMaxX, oldMinY, oldMaxY, oldOversized)
	g.link(e)
}

// AppendCovering appends the ids of every entry whose circle contains p
// and returns the extended slice. Only the single cell containing p (plus
// the overflow list) is scanned; ids appear in insertion order, bucketed
// entries before oversized ones. It performs no allocation when dst has
// capacity.
func (g *Grid) AppendCovering(dst []int, p Point) []int {
	for _, e := range g.buckets[cellKey(g.cellCoord(p.X), g.cellCoord(p.Y))] {
		if e.c.contains(p) {
			dst = append(dst, e.id)
		}
	}
	for _, e := range g.oversized {
		if e.c.contains(p) {
			dst = append(dst, e.id)
		}
	}
	return dst
}

// AppendIntersecting appends the ids of every entry whose circle
// intersects q and returns the extended slice. Cells under q's bounding
// box are visited in row-major order and the result is deduplicated into
// ascending id order (an entry spans every cell its circle's bounding
// box touches), so the output is deterministic regardless of insertion
// history.
func (g *Grid) AppendIntersecting(dst []int, q Circle) []int {
	r := q.R
	if r < 0 || math.IsNaN(r) {
		r = 0
	}
	minX := g.cellCoord(q.Center.X - r)
	maxX := g.cellCoord(q.Center.X + r)
	minY := g.cellCoord(q.Center.Y - r)
	maxY := g.cellCoord(q.Center.Y + r)
	start := len(dst)
	if span := (int64(maxX) - int64(minX) + 1) * (int64(maxY) - int64(minY) + 1); span > maxEntryCells || span > int64(len(g.items)) {
		// The query covers more cells than scanning every entry would
		// cost; the sorted dedup below makes the map order irrelevant.
		for _, e := range g.items {
			if e.c.intersectsCircle(q) {
				dst = append(dst, e.id)
			}
		}
		sort := dst[start:]
		slices.Sort(sort)
		return dst[:start+len(sort)]
	}
	for y := minY; ; y++ {
		for x := minX; ; x++ {
			for _, e := range g.buckets[cellKey(x, y)] {
				if e.c.intersectsCircle(q) {
					dst = append(dst, e.id)
				}
			}
			if x == maxX {
				break
			}
		}
		if y == maxY {
			break
		}
	}
	for _, e := range g.oversized {
		if e.c.intersectsCircle(q) {
			dst = append(dst, e.id)
		}
	}
	sort := dst[start:]
	slices.Sort(sort)
	kept := slices.Compact(sort)
	return dst[:start+len(kept)]
}
