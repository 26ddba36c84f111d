package main

import (
	"fmt"
	"sort"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// oracle is the expected content of a block of the tensor, built from
// the generator's output and the workload's own write log — never from
// anything the program returned. Points are kept in row-major order
// with an index from each leading-dimension row (every dimension but
// the last) to its run of points, so a region answer is checked by
// binary-searching each row, and a region sum by prefix-sum
// differences. Values are multiples of 0.25 below 2^40 and their sums
// stay below 2^51, so every float64 sum here is exact in any order and
// the checks compare for equality.
type oracle struct {
	dims   int
	origin []uint64     // first cell of the block
	shape  tensor.Shape // block extent
	flat   []uint64     // global coordinates, dims per point
	vals   []float64
	prefix []float64 // prefix[i] = vals[0] + ... + vals[i-1]
	rowAt  []int     // rowAt[r] = first point of leading row r; len rows+1
}

// newOracle indexes points that lie inside the block at origin with the
// given extent. flat must be sorted row-major without duplicates.
func newOracle(origin []uint64, shape tensor.Shape, flat []uint64, vals []float64) *oracle {
	dims := len(shape)
	o := &oracle{dims: dims, origin: origin, shape: shape, flat: flat, vals: vals}
	rows := 1
	for d := 0; d < dims-1; d++ {
		rows *= int(shape[d])
	}
	o.rowAt = make([]int, rows+1)
	o.prefix = make([]float64, len(vals)+1)
	r := 0
	for i := range vals {
		o.prefix[i+1] = o.prefix[i] + vals[i]
		row := o.rowOf(flat[i*dims : (i+1)*dims])
		for r < row {
			r++
			o.rowAt[r] = i
		}
	}
	for r < rows {
		r++
		o.rowAt[r] = len(vals)
	}
	return o
}

// rowOf returns the block-local leading-row index of a global point.
func (o *oracle) rowOf(p []uint64) int {
	row := 0
	for d := 0; d < o.dims-1; d++ {
		row = row*int(o.shape[d]) + int(p[d]-o.origin[d])
	}
	return row
}

// nnz returns the number of live points in the block.
func (o *oracle) nnz() int { return len(o.vals) }

// span returns the points of one leading row whose last coordinate lies
// in [lo, hi), as an index range.
func (o *oracle) span(row int, lo, hi uint64) (int, int) {
	last := o.dims - 1
	a, b := o.rowAt[row], o.rowAt[row+1]
	i := a + sort.Search(b-a, func(k int) bool { return o.flat[(a+k)*o.dims+last] >= lo })
	j := a + sort.Search(b-a, func(k int) bool { return o.flat[(a+k)*o.dims+last] >= hi })
	return i, j
}

// eachRow visits every leading row of region (which must lie inside the
// block) in row-major order with the matching point index range.
func (o *oracle) eachRow(region tensor.Region, visit func(i, j int)) {
	lead := o.dims - 1
	idx := make([]uint64, lead)
	copy(idx, region.Start[:lead])
	p := make([]uint64, o.dims)
	lo := region.Start[lead]
	hi := lo + region.Size[lead]
	for {
		copy(p, idx)
		i, j := o.span(o.rowOf(p), lo, hi)
		visit(i, j)
		d := lead - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < region.Start[d]+region.Size[d] {
				break
			}
			idx[d] = region.Start[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// checkRegion verifies a region read's answer: exactly the live points
// inside region, in row-major order, with their values.
func (o *oracle) checkRegion(region tensor.Region, res *store.Result) error {
	if res == nil || res.Coords == nil {
		return fmt.Errorf("region %v: empty response", region)
	}
	got := res.Coords.Flat()
	if len(got) != len(res.Values)*o.dims {
		return fmt.Errorf("region %v: %d coordinates for %d values", region, len(got)/o.dims, len(res.Values))
	}
	k := 0
	var err error
	o.eachRow(region, func(i, j int) {
		for ; i < j && err == nil; i++ {
			if k >= len(res.Values) {
				err = fmt.Errorf("region %v: answer has %d points, want more", region, k)
				return
			}
			for d := 0; d < o.dims; d++ {
				if got[k*o.dims+d] != o.flat[i*o.dims+d] {
					err = fmt.Errorf("region %v: point %d is %v, want %v", region, k, got[k*o.dims:(k+1)*o.dims], o.flat[i*o.dims:(i+1)*o.dims])
					return
				}
			}
			if res.Values[k] != o.vals[i] {
				err = fmt.Errorf("region %v: value at %v is %v, want %v", region, o.flat[i*o.dims:(i+1)*o.dims], res.Values[k], o.vals[i])
				return
			}
			k++
		}
	})
	if err != nil {
		return err
	}
	if k != len(res.Values) {
		return fmt.Errorf("region %v: answer has %d points, want %d", region, len(res.Values), k)
	}
	return nil
}

// sumRegion returns the sum of the live values inside region and how
// many points it covers.
func (o *oracle) sumRegion(region tensor.Region) (float64, int) {
	var sum float64
	n := 0
	o.eachRow(region, func(i, j int) {
		sum += o.prefix[j] - o.prefix[i]
		n += j - i
	})
	return sum, n
}

// checkSum verifies a sum_region kernel answer.
func (o *oracle) checkSum(region tensor.Region, res *store.KernelResult) error {
	if res == nil || len(res.Values) != 1 {
		return fmt.Errorf("sum_region %v: malformed answer", region)
	}
	want, _ := o.sumRegion(region)
	if res.Values[0] != want {
		return fmt.Errorf("sum_region %v: got %v, want %v", region, res.Values[0], want)
	}
	return nil
}

// lookup returns the value stored at p and whether p is live.
func (o *oracle) lookup(p []uint64) (float64, bool) {
	last := o.dims - 1
	i, j := o.span(o.rowOf(p), p[last], p[last]+1)
	if i == j {
		return 0, false
	}
	return o.vals[i], true
}

// checkProbe verifies a probe read's answer: the live probe points in
// row-major order with their values. probe must be free of duplicates.
func (o *oracle) checkProbe(probe *tensor.Coords, res *store.Result) error {
	if res == nil || res.Coords == nil {
		return fmt.Errorf("probe: empty response")
	}
	want := make([][]uint64, 0, probe.Len())
	for i := 0; i < probe.Len(); i++ {
		if _, ok := o.lookup(probe.At(i)); ok {
			want = append(want, probe.At(i))
		}
	}
	sort.Slice(want, func(a, b int) bool { return lessPoint(want[a], want[b]) })
	if res.Coords.Len() != len(want) || len(res.Values) != len(want) {
		return fmt.Errorf("probe: answer has %d points, want %d", res.Coords.Len(), len(want))
	}
	for k, p := range want {
		q := res.Coords.At(k)
		for d := range p {
			if q[d] != p[d] {
				return fmt.Errorf("probe: point %d is %v, want %v", k, q, p)
			}
		}
		if v, _ := o.lookup(p); res.Values[k] != v {
			return fmt.Errorf("probe: value at %v is %v, want %v", p, res.Values[k], v)
		}
	}
	return nil
}

// lessPoint orders coordinate tuples row-major.
func lessPoint(a, b []uint64) bool {
	for d := range a {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}
