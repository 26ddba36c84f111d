package gcs

import (
	"fmt"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

func TestConformanceGCSR(t *testing.T) {
	coretest.RunConformance(t, NewRow())
}

func TestConformanceGCSC(t *testing.T) {
	coretest.RunConformance(t, NewCol())
}

func TestKinds(t *testing.T) {
	if NewRow().Kind() != core.GCSR || NewCol().Kind() != core.GCSC {
		t.Fatal("kinds")
	}
}

func TestGeometrySelectsSmallestExtent(t *testing.T) {
	// §II-C: the smallest dimension becomes the compressed axis and
	// the product of the rest the other axis.
	cases := []struct {
		shape              tensor.Shape
		orient             Orientation
		wantRows, wantCols uint64
	}{
		{tensor.Shape{3, 3, 3}, Row, 3, 9},
		{tensor.Shape{3, 3, 3}, Col, 9, 3},
		{tensor.Shape{8, 2, 4}, Row, 2, 32},
		{tensor.Shape{8, 2, 4}, Col, 32, 2},
		{tensor.Shape{128, 128, 128, 128}, Row, 128, 128 * 128 * 128},
		{tensor.Shape{7}, Row, 7, 1},
		{tensor.Shape{7}, Col, 1, 7},
	}
	for _, tc := range cases {
		rows, cols, err := geometry(tc.shape, tc.orient)
		if err != nil {
			t.Fatalf("geometry(%v, %d): %v", tc.shape, tc.orient, err)
		}
		if rows != tc.wantRows || cols != tc.wantCols {
			t.Errorf("geometry(%v, %d) = %dx%d, want %dx%d",
				tc.shape, tc.orient, rows, cols, tc.wantRows, tc.wantCols)
		}
	}
}

func TestGeometryRejectsOverflow(t *testing.T) {
	if _, _, err := geometry(tensor.Shape{1 << 32, 1 << 33}, Row); err == nil {
		t.Fatal("overflowing shape accepted")
	}
}

// TestPaperExampleCSRStructure checks the CSR packaging of the Fig. 1
// tensor against hand-computed values. The five points linearize to
// 1,4,5,25,26; with rows=3, cols=9 the 2D coordinates are (0,1) (0,4)
// (0,5) (2,7) (2,8), giving row_ptr {0,3,3,5} and col_ind {1,4,5,7,8}.
// (The paper's own Fig. 1(b) prints row_ptr "0,3,5,5" and col_ind
// "0,3,4,6,7", which is inconsistent with its Fig. 1(a) linear
// addresses and its Algorithm 1; we follow the algorithm.)
func TestPaperExampleCSRStructure(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRow().Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(*reader)
	wantPtr := []uint64{0, 3, 3, 5}
	for i, v := range wantPtr {
		if rd.ptr[i] != v {
			t.Fatalf("row_ptr = %v, want %v", rd.ptr, wantPtr)
		}
	}
	wantInd := []uint64{1, 4, 5, 7, 8}
	for i, v := range wantInd {
		if rd.ind[i] != v {
			t.Fatalf("col_ind = %v, want %v", rd.ind, wantInd)
		}
	}
}

// TestPaperExampleCSCStructure hand-computes the GCSC++ packaging of
// the same tensor: cols=3 (the minimum extent), rows=9; the 2D
// coordinates (r,c) are (0,1) (1,1) (1,2) (8,1) (8,2); sorted by
// column, col_ptr is {0,0,3,5} and row_ind {0,1,8,1,8}.
func TestPaperExampleCSCStructure(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewCol().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCol().Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(*reader)
	wantPtr := []uint64{0, 0, 3, 5}
	for i, v := range wantPtr {
		if rd.ptr[i] != v {
			t.Fatalf("col_ptr = %v, want %v", rd.ptr, wantPtr)
		}
	}
	wantInd := []uint64{0, 1, 8, 1, 8}
	for i, v := range wantInd {
		if rd.ind[i] != v {
			t.Fatalf("row_ind = %v, want %v", rd.ind, wantInd)
		}
	}
}

func TestPermMatchesSortOrder(t *testing.T) {
	// Input points at rows 2, 0, 2, 1 (of a 4x4 2D tensor) must sort
	// to rows 0,1,2,2 with ties broken by input order.
	shape := tensor.Shape{4, 4}
	c := tensor.NewCoords(2, 0)
	c.Append(2, 3) // slot 2
	c.Append(0, 0) // slot 0
	c.Append(2, 1) // slot 3... no: sorted by (row, col): (2,1) before (2,3)
	c.Append(1, 2) // slot 1
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 2, 1}
	for i, p := range built.Perm {
		if p != want[i] {
			t.Fatalf("perm = %v, want %v", built.Perm, want)
		}
	}
}

func TestIndexWordsMatchesTableI(t *testing.T) {
	// Table I: GCS space is O(n + min extent) — n minor coordinates
	// plus (minExtent+1) pointers.
	shape, c := coretest.PaperExample()
	for _, f := range []Format{NewRow(), NewCol()} {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		minExt, _ := shape.MinExtent()
		want := c.Len() + int(minExt) + 1
		if w := r.(core.PayloadSizer).IndexWords(); w != want {
			t.Fatalf("orient %d: IndexWords = %d, want %d", f.Orient, w, want)
		}
	}
}

func TestRowAndColPayloadsAreNotInterchangeable(t *testing.T) {
	shape, c := coretest.PaperExample()
	row, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCol().Open(row.Payload, shape); err == nil {
		t.Fatal("GCSC opened a GCSR payload")
	}
}

func TestOpenRejectsShapeMismatch(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRow().Open(built.Payload, tensor.Shape{3, 3, 4}); err == nil {
		t.Fatal("payload opened under different shape")
	}
}

func TestRejectsOutOfShapePoint(t *testing.T) {
	shape := tensor.Shape{4, 4}
	c := tensor.NewCoords(2, 1)
	c.Append(0, 9)
	if _, err := NewRow().Build(c, shape); err == nil {
		t.Fatal("out-of-shape point accepted")
	}
}

func TestAnisotropicMinExtentNotFirst(t *testing.T) {
	// When the smallest extent is an inner dimension the remap must
	// still resolve every point.
	shape := tensor.Shape{100, 2, 50}
	c := tensor.NewCoords(3, 0)
	c.Append(99, 1, 49)
	c.Append(0, 0, 0)
	c.Append(50, 1, 0)
	for _, f := range []Format{NewRow(), NewCol()} {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Len(); i++ {
			if _, ok := r.Lookup(c.At(i)); !ok {
				t.Fatalf("orient %d: point %v lost", f.Orient, c.At(i))
			}
		}
	}
}

// TestScanRegionMatchesFilteredEach pins the seeking region walk to
// its definition: ScanRegion and RegionPoints visit exactly the points,
// slots and order of Each filtered by Contains. Shapes have 1-4 dims
// with the smallest extent anywhere; points repeat, so slices hold
// duplicates; regions range from single cells to ones that overhang
// the shape, and sparse datasets give regions with more seeks than
// points, which take the filtered fallback.
func TestScanRegionMatchesFilteredEach(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	paths := map[string]int{}
	for round := 0; round < 300; round++ {
		d := 1 + round%4
		shape := make(tensor.Shape, d)
		for i := range shape {
			shape[i] = uint64(2 + rng.Intn(9))
		}
		// Put the smallest extent in a random dimension.
		shape[rng.Intn(d)] = 1 + uint64(rng.Intn(3))
		vol, _ := shape.Volume()
		n := rng.Intn(int(vol)/2 + 2)
		c := tensor.NewCoords(d, n)
		p := make([]uint64, d)
		for i := 0; i < n; i++ {
			for j := range p {
				p[j] = uint64(rng.Int63n(int64(shape[j])))
			}
			c.Append(p...)
			if rng.Intn(8) == 0 { // a duplicate point
				c.Append(p...)
			}
		}
		for _, f := range []Format{NewRow(), NewCol()} {
			built, err := f.Build(c, shape)
			if err != nil {
				t.Fatal(err)
			}
			r, err := f.Open(built.Payload, shape)
			if err != nil {
				t.Fatal(err)
			}
			rd := r.(*reader)
			for q := 0; q < 4; q++ {
				region := tensor.Region{Start: make([]uint64, d), Size: make([]uint64, d)}
				for i := range shape {
					region.Start[i] = uint64(rng.Int63n(int64(shape[i])))
					region.Size[i] = 1 + uint64(rng.Int63n(int64(shape[i]-region.Start[i])))
					if q == 3 {
						region.Size[i] += uint64(rng.Intn(3)) // overhang the shape
					}
				}
				label := fmt.Sprintf("orient %d shape %v region %v", f.Orient, shape, region)
				paths[seekPath(rd, region)]++
				var want []string
				rd.Each(func(p []uint64, slot int) bool {
					if region.Contains(p) {
						want = append(want, fmt.Sprint(p, slot))
					}
					return true
				})
				var got []string
				rd.ScanRegion(region, func(p []uint64, slot int) bool {
					got = append(got, fmt.Sprint(p, slot))
					return true
				})
				sameSteps(t, label+" ScanRegion", got, want)
				got = got[:0]
				for p, slot := range rd.RegionPoints(region) {
					got = append(got, fmt.Sprint(p, slot))
				}
				sameSteps(t, label+" RegionPoints", got, want)
				if len(want) > 1 {
					stop := 1 + rng.Intn(len(want)-1)
					got = got[:0]
					rd.ScanRegion(region, func(p []uint64, slot int) bool {
						got = append(got, fmt.Sprint(p, slot))
						return len(got) < stop
					})
					sameSteps(t, label+" ScanRegion(early stop)", got, want[:stop])
				}
			}
		}
	}
	for _, path := range []string{"runs", "band", "fallback"} {
		if paths[path] == 0 {
			t.Errorf("no region took the %s path (%v)", path, paths)
		}
	}
}

// seekPath names the walk ScanRegion takes for an in-shape-rank region.
func seekPath(r *reader, region tensor.Region) string {
	seeks := uint64(len(r.ptr)) - 1
	if r.orient == Row {
		seeks = 1
		for i := 0; i < region.Dims()-1; i++ {
			seeks *= min(region.Start[i]+region.Size[i], r.lin.Shape()[i]) - region.Start[i]
		}
	}
	switch {
	case seeks > uint64(r.NNZ()):
		return "fallback"
	case r.orient == Row:
		return "runs"
	}
	return "band"
}

func sameSteps(t *testing.T, label string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
	}
}

// TestScanRegionEdgeRegions covers regions the store never sends but a
// reader must still answer like Each + Contains: a rank mismatch, a
// start past the shape and a size that wraps past 2^64.
func TestScanRegionEdgeRegions(t *testing.T) {
	shape, c := coretest.PaperExample()
	for _, f := range []Format{NewRow(), NewCol()} {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		rd := r.(*reader)
		for _, region := range []tensor.Region{
			{Start: []uint64{0, 0}, Size: []uint64{3, 3}},
			{Start: []uint64{0, 5, 0}, Size: []uint64{3, 1, 3}},
			{Start: []uint64{0, 1, 1}, Size: []uint64{3, ^uint64(0), 2}},
		} {
			var want, got []string
			rd.Each(func(p []uint64, slot int) bool {
				if region.Contains(p) {
					want = append(want, fmt.Sprint(p, slot))
				}
				return true
			})
			rd.ScanRegion(region, func(p []uint64, slot int) bool {
				got = append(got, fmt.Sprint(p, slot))
				return true
			})
			sameSteps(t, fmt.Sprintf("orient %d region %v", f.Orient, region), got, want)
		}
	}
}

func FuzzOpenRow(f *testing.F) { coretest.FuzzOpen(f, NewRow()) }

func FuzzOpenCol(f *testing.F) { coretest.FuzzOpen(f, NewCol()) }
