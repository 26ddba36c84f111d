package store

import (
	"context"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// TestSerialReadAllocBudget pins the allocation count of the serial
// read and push-down paths. The store is 64² with 8 fragments of 200
// points, the reader cache is warm, and a metered registry is attached,
// so the counts cover the executor, the metric calls and the merge but
// no fragment loads. The cache and index are forced on so the CI
// matrix's environment knobs do not move the figures.
func TestSerialReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	type budget struct{ probe, scan, auto, points, sumRegion float64 }
	budgets := map[core.Kind]budget{
		core.GCSR: {probe: 75, scan: 91, auto: 91, points: 64, sumRegion: 273},
		core.CSF:  {probe: 75, scan: 92, auto: 92, points: 64, sumRegion: 270},
		core.COO:  {probe: 75, scan: 92, auto: 92, points: 64, sumRegion: 318},
	}
	shape := tensor.Shape{64, 64}
	for _, kind := range []core.Kind{core.GCSR, core.CSF, core.COO} {
		t.Run(kind.String(), func(t *testing.T) {
			st, err := Create(newSim(t), "a", kind, shape,
				WithObs(obs.New()), WithReaderCache(64<<20), WithFragmentIndex(true))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for f := 0; f < 8; f++ {
				c, vals := randomPoints(rng, shape, 200)
				if _, err := st.Write(c, vals); err != nil {
					t.Fatal(err)
				}
			}
			region, err := tensor.NewRegion(shape, []uint64{24, 24}, []uint64{16, 16})
			if err != nil {
				t.Fatal(err)
			}
			points, _ := randomPoints(rng, shape, 16)
			ctx := context.Background()
			want := budgets[kind]
			cases := []struct {
				name  string
				limit float64
				run   func() error
			}{
				{"region/probe", want.probe, func() error {
					_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest})
					return err
				}},
				{"region/scan", want.scan, func() error {
					_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: StrategyScan})
					return err
				}},
				{"region/auto", want.auto, func() error {
					_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: StrategyAuto})
					return err
				}},
				{"points", want.points, func() error {
					_, _, err := st.Query(ctx, QueryRequest{Probe: points, AsOf: AsOfLatest})
					return err
				}},
				{"sum_region", want.sumRegion, func() error {
					_, err := st.Kernel(ctx, KernelRequest{Op: KernelSumRegion, Region: &region, Workers: 1})
					return err
				}},
			}
			for _, c := range cases {
				if err := c.run(); err != nil { // warms the cache and the metric families
					t.Fatal(err)
				}
				got := testing.AllocsPerRun(20, func() {
					if err := c.run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: %.0f allocs/op (budget %.0f)", c.name, got, c.limit)
				if got > c.limit {
					t.Errorf("%s: %.0f allocs/op, budget %.0f", c.name, got, c.limit)
				}
			}
		})
	}
	t.Run("Chunked", chunkedReadAllocBudget)
}

// chunkedReadAllocBudget pins a chunked region read's allocations and
// checks they do not grow with the number of tiles: a 16x16 GCSR++
// region inside one tile costs the same on a 1-tile 64² store as on a
// 64-tile 512² store whose every tile holds the same 8 fragments of
// 200 points.
func chunkedReadAllocBudget(t *testing.T) {
	t.Setenv(sharedCacheEnv, "on") // the shared cache, whatever the CI matrix sets
	tile := tensor.Shape{64, 64}
	budgets := map[string]float64{"region/probe": 115, "region/auto": 131, "sum_region": 387}
	allocs := map[string][]float64{}
	for _, tiles := range []uint64{1, 8} {
		shape := tensor.Shape{64 * tiles, 64 * tiles}
		st, err := NewChunked(newSim(t), "a", core.GCSR, shape, tile,
			WithObs(obs.New()), WithReaderCache(64<<20), WithFragmentIndex(true))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for f := 0; f < 8; f++ {
			local, vals := randomPoints(rng, tile, 200)
			c := tensor.NewCoords(2, 0)
			var all []float64
			for ti := uint64(0); ti < tiles; ti++ {
				for tj := uint64(0); tj < tiles; tj++ {
					for i := 0; i < local.Len(); i++ {
						p := local.At(i)
						c.Append(p[0]+64*ti, p[1]+64*tj)
					}
					all = append(all, vals...)
				}
			}
			if _, err := st.Write(c, all); err != nil {
				t.Fatal(err)
			}
		}
		if got := uint64(st.Tiles()); got != tiles*tiles {
			t.Fatalf("%d tiles, want %d", got, tiles*tiles)
		}
		// The region sits in the last tile's frame at the same local
		// offset, so both stores do the same per-tile work.
		o := 64 * (tiles - 1)
		region, err := tensor.NewRegion(shape, []uint64{o + 24, o + 24}, []uint64{16, 16})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		cases := []struct {
			name string
			run  func() error
		}{
			{"region/probe", func() error {
				_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest})
				return err
			}},
			{"region/auto", func() error {
				_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: StrategyAuto})
				return err
			}},
			{"sum_region", func() error {
				_, err := st.Kernel(ctx, KernelRequest{Op: KernelSumRegion, Region: &region, Workers: 1})
				return err
			}},
		}
		for _, c := range cases {
			if err := c.run(); err != nil { // warms the cache and the metric families
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d tiles, %s: %.0f allocs/op (budget %.0f)", tiles*tiles, c.name, got, budgets[c.name])
			if got > budgets[c.name] {
				t.Errorf("%d tiles, %s: %.0f allocs/op, budget %.0f", tiles*tiles, c.name, got, budgets[c.name])
			}
			allocs[c.name] = append(allocs[c.name], got)
		}
	}
	for name, got := range allocs {
		if got[0] != got[1] {
			t.Errorf("%s: %.0f allocs/op on 1 tile, %.0f on 64: the cost grows with the tile count", name, got[0], got[1])
		}
	}
}
