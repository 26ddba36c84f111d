package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

func fragmentedStore(t *testing.T, kind core.Kind, fragments int) (*Store, *tensor.Coords) {
	t.Helper()
	shape := tensor.Shape{16, 16, 16}
	rng := rand.New(rand.NewSource(int64(kind)*100 + int64(fragments)))
	fs := newSim(t)
	st, err := Create(fs, "p", kind, shape)
	if err != nil {
		t.Fatal(err)
	}
	all := tensor.NewCoords(3, 0)
	for f := 0; f < fragments; f++ {
		coords, vals := randomPoints(rng, shape, 60)
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		all.AppendFlat(coords.Flat())
	}
	return st, all
}

func TestReadParallelMatchesSerial(t *testing.T) {
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			st, probe := fragmentedStore(t, kind, 6)
			serial, srep, err := st.Read(probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par, prep, err := st.ReadParallel(probe, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !par.Coords.Equal(serial.Coords) {
					t.Fatalf("workers=%d: %d cells vs %d serial",
						workers, par.Coords.Len(), serial.Coords.Len())
				}
				for i := range serial.Values {
					if par.Values[i] != serial.Values[i] {
						t.Fatalf("workers=%d: value %d differs", workers, i)
					}
				}
				if prep.Fragments != srep.Fragments || prep.Found != srep.Found {
					t.Fatalf("workers=%d: report %+v vs %+v", workers, prep, srep)
				}
			}

			// Every region strategy under a worker pool matches its
			// serial run byte for byte.
			region, err := tensor.NewRegion(tensor.Shape{16, 16, 16}, []uint64{2, 3, 1}, []uint64{12, 10, 13})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := st.ReadRegion(region)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
				var srep *ReadReport
				for _, workers := range []int{0, 4} {
					label := fmt.Sprintf("%v workers=%d", strat, workers)
					got, rep, err := st.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strat, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label, got, want)
					if srep == nil {
						srep = rep
					}
					if rep.Fragments != srep.Fragments || rep.Scans != srep.Scans || rep.Probed != srep.Probed || rep.Found != srep.Found {
						t.Fatalf("%s: report %+v vs serial %+v", label, rep, srep)
					}
				}
			}
		})
	}
}

func TestReadParallelSingleWorkerDelegates(t *testing.T) {
	st, probe := fragmentedStore(t, core.Linear, 3)
	res, rep, err := st.ReadParallel(probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() == 0 || rep.Fragments != 3 {
		t.Fatalf("delegated read: %d cells, %d fragments", res.Coords.Len(), rep.Fragments)
	}
}

func TestReadParallelEmptyProbe(t *testing.T) {
	st, _ := fragmentedStore(t, core.CSF, 2)
	res, _, err := st.ReadParallel(tensor.NewCoords(3, 0), 4)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("empty probe: %v, %v", res, err)
	}
}

func TestReadParallelPropagatesErrors(t *testing.T) {
	shape := tensor.Shape{8, 8}
	fs := fsim.NewFaultFS(fsim.NewPerlmutterSim())
	st, err := Create(fs, "p", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	probe := tensor.NewCoords(2, 0)
	for i := uint64(0); i < 4; i++ {
		c := tensor.NewCoords(2, 0)
		c.Append(i, i)
		if _, err := st.Write(c, []float64{1}); err != nil {
			t.Fatal(err)
		}
		probe.Append(i, i)
	}
	fs.FailOn = "frag-000002"
	if _, _, err := st.ReadParallel(probe, 4); err == nil {
		t.Fatal("injected fragment failure not propagated")
	}
}

func TestReadParallelValidation(t *testing.T) {
	st, _ := fragmentedStore(t, core.COO, 1)
	bad := tensor.NewCoords(2, 0)
	bad.Append(1, 1)
	if _, _, err := st.ReadParallel(bad, 4); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}
