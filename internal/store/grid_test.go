package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparseart/internal/tensor"
)

// TestGridWalkMatchesBruteForce checks both walk modes against a
// brute-force overlap test: with the materialized set smaller and
// larger than the region's tile box, Walk visits exactly the
// materialized tiles Clip says the region meets, in row-major order,
// and with no set it visits every overlapped grid index.
func TestGridWalkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		dims := 1 + rng.Intn(3)
		shape := make(tensor.Shape, dims)
		tile := make(tensor.Shape, dims)
		for d := range shape {
			shape[d] = 1 + uint64(rng.Intn(30))
			tile[d] = 1 + uint64(rng.Intn(8))
		}
		g, err := NewGrid(shape, tile)
		if err != nil {
			t.Fatal(err)
		}
		var all [][]uint64 // every grid index, row-major
		tensor.Region{Start: make([]uint64, dims), Size: g.counts()}.Each(func(p []uint64) {
			all = append(all, slices.Clone(p))
		})
		var tiles [][]uint64
		for _, idx := range all {
			if rng.Intn(3) == 0 {
				tiles = append(tiles, idx)
			}
		}
		region := tensor.Region{Start: make([]uint64, dims), Size: make([]uint64, dims)}
		for d := range shape {
			region.Start[d] = uint64(rng.Intn(int(shape[d])))
			region.Size[d] = 1 + uint64(rng.Intn(int(shape[d]-region.Start[d])))
		}
		for _, set := range [][][]uint64{tiles, all, nil} {
			var want [][]uint64
			from := set
			if set == nil {
				from = all
			}
			for _, idx := range from {
				if _, ok := g.Clip(region, idx); ok {
					want = append(want, idx)
				}
			}
			var got [][]uint64
			g.Walk(region, set, func(i int, idx []uint64) bool {
				if set != nil && !slices.Equal(set[i], idx) {
					t.Fatalf("position %d holds %v, visited as %v", i, set[i], idx)
				}
				got = append(got, slices.Clone(idx))
				return true
			})
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("shape %v tile %v region %v (%d tiles): walk %v, want %v", shape, tile, region, len(set), got, want)
			}
		}
	}
}

// counts returns the number of tiles per dimension.
func (g *Grid) counts() tensor.Shape {
	n := make(tensor.Shape, len(g.shape))
	for d := range n {
		n[d] = (g.shape[d] + g.tile[d] - 1) / g.tile[d]
	}
	return n
}

// TestMergeRunsMatchesSort: merging row-major-sorted runs, some offset
// by a tile origin and some not, gives the globally sorted points.
func TestMergeRunsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 100; round++ {
		dims := 1 + rng.Intn(3)
		type pt struct {
			p []uint64
			v float64
		}
		var all []pt
		seen := map[string]bool{}
		var runs []Run
		for r := rng.Intn(6); r > 0; r-- {
			var origin []uint64
			if rng.Intn(2) == 0 {
				origin = make([]uint64, dims)
				for d := range origin {
					origin[d] = uint64(rng.Intn(4)) * 10
				}
			}
			var local []pt
			for n := rng.Intn(8); n > 0; n-- {
				p := make([]uint64, dims)
				g := make([]uint64, dims)
				for d := range p {
					p[d] = uint64(rng.Intn(10))
					g[d] = p[d]
					if origin != nil {
						g[d] += origin[d]
					}
				}
				if key := fmt.Sprint(g); !seen[key] {
					seen[key] = true
					v := rng.Float64()
					local = append(local, pt{p, v})
					all = append(all, pt{g, v})
				}
			}
			slices.SortFunc(local, func(a, b pt) int { return slices.Compare(a.p, b.p) })
			res := &Result{Coords: tensor.NewCoords(dims, len(local))}
			for _, x := range local {
				res.Coords.Append(x.p...)
				res.Values = append(res.Values, x.v)
			}
			runs = append(runs, Run{Result: res, Origin: origin})
		}
		runs = append(runs, Run{}) // a shard that was not asked
		slices.SortFunc(all, func(a, b pt) int { return slices.Compare(a.p, b.p) })
		got := MergeRuns(dims, runs)
		if got.Coords.Len() != len(all) {
			t.Fatalf("merged %d points, want %d", got.Coords.Len(), len(all))
		}
		for i, x := range all {
			if !slices.Equal(got.Coords.At(i), x.p) || got.Values[i] != x.v {
				t.Fatalf("point %d: got %v=%v, want %v=%v", i, got.Coords.At(i), got.Values[i], x.p, x.v)
			}
		}
	}
}
