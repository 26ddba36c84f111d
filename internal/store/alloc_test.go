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
}
