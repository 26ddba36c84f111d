package tensor

import "fmt"

// BBox is an inclusive axis-aligned bounding box. Fragment metadata
// carries one so Algorithm 3's READ can find the fragments that overlap
// a query without unpacking their indexes.
type BBox struct {
	Min, Max []uint64
}

// Dims returns the number of dimensions.
func (b BBox) Dims() int { return len(b.Min) }

// Contains reports whether point p lies inside the box.
func (b BBox) Contains(p []uint64) bool {
	if len(p) != len(b.Min) {
		return false
	}
	for i, c := range p {
		if c < b.Min[i] || c > b.Max[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether two boxes share at least one cell.
func (b BBox) Overlaps(o BBox) bool {
	if len(b.Min) != len(o.Min) {
		return false
	}
	for i := range b.Min {
		if b.Max[i] < o.Min[i] || o.Max[i] < b.Min[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest box containing both.
func (b BBox) Union(o BBox) BBox {
	u := BBox{
		Min: append([]uint64(nil), b.Min...),
		Max: append([]uint64(nil), b.Max...),
	}
	for i := range o.Min {
		if o.Min[i] < u.Min[i] {
			u.Min[i] = o.Min[i]
		}
		if o.Max[i] > u.Max[i] {
			u.Max[i] = o.Max[i]
		}
	}
	return u
}

// Region is a rectangular query window given by a start corner and a
// size, the form the paper's read benchmark uses: start (m/2, ..., m/2),
// size (m/10, ..., m/10).
type Region struct {
	Start, Size []uint64
}

// NewRegion validates and builds a region inside shape.
func NewRegion(shape Shape, start, size []uint64) (Region, error) {
	if err := (Region{Start: start, Size: size}).Validate(shape); err != nil {
		return Region{}, err
	}
	return Region{Start: append([]uint64(nil), start...), Size: append([]uint64(nil), size...)}, nil
}

// Validate checks that r has shape's rank, no zero extent, and lies
// inside shape. It allocates only on failure.
func (r Region) Validate(shape Shape) error {
	if len(r.Start) != len(shape) || len(r.Size) != len(shape) {
		return fmt.Errorf("tensor: region rank mismatch with shape %v", shape)
	}
	for i := range r.Start {
		if r.Size[i] == 0 {
			return fmt.Errorf("tensor: region size has zero extent in dim %d", i)
		}
		// Compared as a difference so a start+size that wraps past
		// 2^64 cannot slip through.
		if r.Start[i] >= shape[i] || r.Size[i] > shape[i]-r.Start[i] {
			return fmt.Errorf("tensor: region at %d of size %d exceeds extent %d in dim %d",
				r.Start[i], r.Size[i], shape[i], i)
		}
	}
	return nil
}

// Dims returns the number of dimensions.
func (r Region) Dims() int { return len(r.Start) }

// BBox returns the inclusive bounding box of the region.
func (r Region) BBox() BBox {
	min := append([]uint64(nil), r.Start...)
	max := make([]uint64, len(r.Start))
	for i := range max {
		max[i] = r.Start[i] + r.Size[i] - 1
	}
	return BBox{Min: min, Max: max}
}

// Volume returns the number of cells in the region; ok is false on
// uint64 overflow.
func (r Region) Volume() (uint64, bool) {
	return Shape(r.Size).Volume()
}

// Contains reports whether p lies inside the region.
func (r Region) Contains(p []uint64) bool {
	if len(p) != len(r.Start) {
		return false
	}
	for i, c := range p {
		if c < r.Start[i] || c >= r.Start[i]+r.Size[i] {
			return false
		}
	}
	return true
}

// Each visits every cell of the region in row-major order, reusing a
// single scratch point slice; the callback must not retain it.
func (r Region) Each(visit func(p []uint64)) {
	d := len(r.Start)
	p := append([]uint64(nil), r.Start...)
	for {
		visit(p)
		i := d - 1
		for ; i >= 0; i-- {
			p[i]++
			if p[i] < r.Start[i]+r.Size[i] {
				break
			}
			p[i] = r.Start[i]
		}
		if i < 0 {
			return
		}
	}
}

// Coords materializes every cell of the region, in row-major order, as a
// coordinate buffer. This is the probe list the paper's READ benchmark
// feeds to each organization's read function.
func (r Region) Coords() *Coords {
	vol, ok := r.Volume()
	if !ok {
		panic("tensor: region volume overflows uint64")
	}
	out := NewCoords(len(r.Start), int(vol))
	r.Each(func(p []uint64) { out.Append(p...) })
	return out
}
