package store

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sparseart/internal/tensor"
)

// Grid is the tiling decision behind the paper's remedy for
// linear-address overflow (§II-B): a global shape cut into fixed tiles,
// each small enough that its own linear addresses fit in uint64. It is
// shared by the two layers that tile: Chunked keeps one Store per
// materialized tile, and serve.Router places tiles on shards by hashing
// their keys. Both therefore agree on every tile's index, key, frame,
// and on which tiles a region overlaps.
//
// Every region a Grid method takes must lie inside the shape
// (ValidateRegion); that is what lets the walk and the clip do plain
// arithmetic with no overflow clamps.
type Grid struct {
	shape tensor.Shape // global extents
	tile  tensor.Shape // interior tile extents; edge tiles clip
}

// NewGrid validates the tiling: shape and tile have the same rank and
// no zero extent, and a tile's volume fits in uint64. The global
// volume may overflow.
func NewGrid(shape, tile tensor.Shape) (*Grid, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := tile.Validate(); err != nil {
		return nil, err
	}
	if len(tile) != len(shape) {
		return nil, fmt.Errorf("store: tile rank %d != shape rank %d", len(tile), len(shape))
	}
	if _, ok := tile.Volume(); !ok {
		return nil, fmt.Errorf("store: %w: tile %v", tensor.ErrOverflow, tile)
	}
	return &Grid{shape: shape.Clone(), tile: tile.Clone()}, nil
}

// Shape returns the global extents.
func (g *Grid) Shape() tensor.Shape { return g.shape }

// Tile returns the interior tile extents.
func (g *Grid) Tile() tensor.Shape { return g.tile }

// TileOf writes the index of the tile holding point p into idx.
func (g *Grid) TileOf(idx, p []uint64) {
	for d := range p {
		idx[d] = p[d] / g.tile[d]
	}
}

// AppendKey appends the key of tile idx, "t-i-j-…", to dst. The key
// names the tile's directory and is what the router's ring hashes, so
// its bytes must never change.
func (g *Grid) AppendKey(dst []byte, idx []uint64) []byte {
	dst = append(dst, 't')
	for _, v := range idx {
		dst = append(dst, '-')
		dst = strconv.AppendUint(dst, v, 10)
	}
	return dst
}

// Key returns the key of tile idx (see AppendKey).
func (g *Grid) Key(idx []uint64) string { return string(g.AppendKey(nil, idx)) }

// ParseKey parses a tile key back to its index. It accepts only the
// exact bytes Key produces for the grid's rank.
func (g *Grid) ParseKey(key string) ([]uint64, bool) {
	rest, ok := strings.CutPrefix(key, "t-")
	if !ok {
		return nil, false
	}
	parts := strings.Split(rest, "-")
	if len(parts) != len(g.shape) {
		return nil, false
	}
	idx := make([]uint64, len(parts))
	for d, part := range parts {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, false
		}
		idx[d] = v
	}
	return idx, g.Key(idx) == key
}

// Origin returns the global coordinates of tile idx's first cell.
func (g *Grid) Origin(idx []uint64) []uint64 {
	origin := make([]uint64, len(idx))
	for d, i := range idx {
		origin[d] = i * g.tile[d]
	}
	return origin
}

// TileShape returns the extents of tile idx, clipped at the shape's
// far edge.
func (g *Grid) TileShape(idx []uint64) tensor.Shape {
	s := make(tensor.Shape, len(idx))
	for d, i := range idx {
		s[d] = min(g.tile[d], g.shape[d]-i*g.tile[d])
	}
	return s
}

// Clip intersects region with tile idx and returns the overlap in the
// tile's local frame; ok is false when they do not meet.
func (g *Grid) Clip(region tensor.Region, idx []uint64) (local tensor.Region, ok bool) {
	dims := len(idx)
	buf := make([]uint64, 2*dims)
	local = tensor.Region{Start: buf[:dims:dims], Size: buf[dims:]}
	for d, i := range idx {
		origin := i * g.tile[d]
		lo := max(region.Start[d], origin)
		hi := min(region.Start[d]+region.Size[d], origin+min(g.tile[d], g.shape[d]-origin))
		if lo >= hi {
			return tensor.Region{}, false
		}
		local.Start[d] = lo - origin
		local.Size[d] = hi - lo
	}
	return local, true
}

// Walk visits the tiles region overlaps in row-major tile order, until
// visit returns false. With tiles nil, it visits every index in the
// region's tile box, passing i = -1. Otherwise tiles lists the
// materialized tile indices in row-major order and Walk visits only
// those, passing each one's position in tiles: it walks the box and
// looks each index up when the box has at most len(tiles) cells, and
// filters tiles by the box when it has more. So a small region costs
// what it covers however many tiles exist, and a region spanning a
// huge grid costs what exists, not what it spans.
func (g *Grid) Walk(region tensor.Region, tiles [][]uint64, visit func(i int, idx []uint64) bool) {
	dims := len(g.tile)
	lo := make([]uint64, dims)
	hi := make([]uint64, dims)
	cells, bounded := uint64(1), true
	for d := range lo {
		lo[d] = region.Start[d] / g.tile[d]
		hi[d] = (region.Start[d] + region.Size[d] - 1) / g.tile[d]
		n := hi[d] - lo[d] + 1
		// Divide before multiplying, so the product cannot wrap.
		bounded = bounded && cells <= uint64(len(tiles))/n
		cells *= n
	}
	if tiles != nil && !bounded {
		for i, idx := range tiles {
			inside := true
			for d, v := range idx {
				inside = inside && lo[d] <= v && v <= hi[d]
			}
			if inside && !visit(i, idx) {
				return
			}
		}
		return
	}
	idx := slices.Clone(lo)
	for {
		i, found := -1, tiles == nil
		if !found {
			i, found = slices.BinarySearchFunc(tiles, idx, slices.Compare[[]uint64])
		}
		if found && !visit(i, idx) {
			return
		}
		d := dims - 1
		for ; d >= 0; d-- {
			if idx[d] < hi[d] {
				idx[d]++
				break
			}
			idx[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// ValidateRegion is the region contract shared by Store, Chunked and
// serve.Router: a region of the wrong rank is ErrShapeMismatch, and one
// with a zero extent or reaching outside shape is ErrBadRequest.
func ValidateRegion(shape tensor.Shape, region tensor.Region) error {
	if region.Dims() != shape.Dims() {
		return fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, region.Dims(), shape.Dims())
	}
	if err := region.Validate(shape); err != nil {
		return fmt.Errorf("store: %w: %w", ErrBadRequest, err)
	}
	return nil
}

// Run is one row-major-sorted result to merge. Origin is added to its
// coordinates: a tile's origin for a tile-local result, nil for a
// result already in global coordinates (a shard's).
type Run struct {
	Result *Result
	Origin []uint64
}

// MergeRuns merges runs of disjoint points into one Result in global
// row-major order, which is linear-address order: the order a flat
// store's read returns. Runs with a nil Result are skipped.
func MergeRuns(dims int, runs []Run) *Result {
	total := 0
	heap := make([]int, 0, len(runs)) // runs with points left, min-heap on their head point
	for i, r := range runs {
		if r.Result != nil && r.Result.Coords.Len() > 0 {
			total += r.Result.Coords.Len()
			heap = append(heap, i)
		}
	}
	out := &Result{Coords: tensor.NewCoords(dims, total), Values: slices.Grow([]float64(nil), total)}
	pos := make([]int, len(runs))
	at := func(r, d int) uint64 {
		v := runs[r].Result.Coords.Get(pos[r], d)
		if runs[r].Origin != nil {
			v += runs[r].Origin[d]
		}
		return v
	}
	less := func(a, b int) bool {
		for d := 0; d < dims; d++ {
			if va, vb := at(a, d), at(b, d); va != vb {
				return va < vb
			}
		}
		return a < b
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	p := make([]uint64, dims)
	for len(heap) > 0 {
		r := heap[0]
		for d := range p {
			p[d] = at(r, d)
		}
		out.Coords.Append(p...)
		out.Values = append(out.Values, runs[r].Result.Values[pos[r]])
		if pos[r]++; pos[r] == runs[r].Result.Coords.Len() {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
