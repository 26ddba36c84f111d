package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// TestOpenChunkedRoundTrip checks chunked-store persistence: a store
// reopened through the CHUNKED manifest rediscovers every tile and
// answers reads identically to the original.
func TestOpenChunkedRoundTrip(t *testing.T) {
	shape := tensor.Shape{30, 30}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	c, err := NewChunked(fs, "c", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, b := range ingestBatches(rng, shape, 4, 80) {
		if _, err := c.Write(b.Coords, b.Values); err != nil {
			t.Fatal(err)
		}
	}
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{30, 30}}
	want, _, err := c.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	tiles := c.Tiles()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenChunked(fs, "c")
	if err != nil {
		t.Fatalf("open chunked: %v", err)
	}
	defer re.Close()
	if re.Kind() != core.CSF || !re.Shape().Equal(shape) || !re.Tile().Equal(tile) {
		t.Fatalf("reopened config: kind=%v shape=%v tile=%v", re.Kind(), re.Shape(), re.Tile())
	}
	if re.Tiles() != tiles {
		t.Fatalf("reopened %d tiles, want %d", re.Tiles(), tiles)
	}
	got, _, err := re.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Coords.Flat(), want.Coords.Flat()) || !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("reopened store answers differently")
	}

	// Writes keep working after reopen and land in existing tiles.
	if _, err := re.Write(mustFromFlat(t, 2, 1, 2), []float64{42}); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

// TestOpenChunkedMissingManifest rejects prefixes NewChunked never
// touched.
func TestOpenChunkedMissingManifest(t *testing.T) {
	if _, err := OpenChunked(newSim(t), "nope"); err == nil {
		t.Fatal("opened a chunked store with no manifest")
	}
}

func mustFromFlat(t *testing.T, dims int, flat ...uint64) *tensor.Coords {
	t.Helper()
	c, err := tensor.FromFlat(dims, flat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryContextCanceled: a pre-canceled context stops a region read
// before any fragment work.
func TestQueryContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if _, err := st.Write(mustFromFlat(t, 2, i, i), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{10, 10}}
	for _, strat := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
		_, _, err := st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strat})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %v: err = %v, want context.Canceled", strat, err)
		}
	}
	// Parallel probe path too.
	_, _, err = st.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel: err = %v, want context.Canceled", err)
	}
}

// TestQueryRejectsOutOfShapeRegion: a region outside the store's
// shape is a typed bad request under every strategy and budget, never
// a panic, on a flat store and on a chunked one alike. The first case
// is a volume that overflows uint64, which the probe strategy used to
// materialize cell by cell; the chunked store used to clip the others
// to the tiles instead of rejecting them.
func TestQueryRejectsOutOfShapeRegion(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChunked(newSim(t), "c", core.COO, tensor.Shape{10, 10}, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(mustFromFlat(t, 2, 1, 1), []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Write(mustFromFlat(t, 2, 1, 1), []float64{1}); err != nil {
		t.Fatal(err)
	}
	bad := []tensor.Region{
		{Start: []uint64{0, 0}, Size: []uint64{1 << 33, 1 << 33}},
		{Start: []uint64{0, 0}, Size: []uint64{11, 1}},
		{Start: []uint64{10, 0}, Size: []uint64{1, 1}},
		{Start: []uint64{1, 0}, Size: []uint64{math.MaxUint64, 1}}, // start+size wraps
		{Start: []uint64{0, 0}, Size: []uint64{0, 1}},
	}
	ctx := context.Background()
	targets := []struct {
		name string
		q    interface {
			Query(context.Context, QueryRequest) (*Result, *ReadReport, error)
			Kernel(context.Context, KernelRequest) (*KernelResult, error)
		}
	}{{"flat", st}, {"chunked", ch}}
	for _, tg := range targets {
		for _, region := range bad {
			for _, strat := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
				for _, workers := range []int{0, 4} {
					_, _, err := tg.q.Query(ctx, QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strat, Workers: workers})
					if !errors.Is(err, ErrBadRequest) {
						t.Fatalf("%s: region %v, %v, workers %d: err = %v, want ErrBadRequest", tg.name, region, strat, workers, err)
					}
				}
			}
			_, err := tg.q.Kernel(ctx, KernelRequest{Op: KernelSumRegion, Region: &region})
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: sum_region %v: err = %v, want ErrBadRequest", tg.name, region, err)
			}
		}
	}
	for _, region := range bad {
		if _, err := ch.DeleteRegion(region); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("chunked delete %v: err = %v, want ErrBadRequest", region, err)
		}
	}
}

// TestRegionTooLargeToProbe: a valid region whose probe list would
// exceed maxProbeBytes is a bad request under the default strategy,
// not a process-killing allocation, while scan and auto still answer
// it. Both a flat 2^31 x 2^31 store and the chunked 2^160-cell store
// of TestChunkedHandlesOverflowShape are covered.
func TestRegionTooLargeToProbe(t *testing.T) {
	ctx := context.Background()
	flat, err := Create(newSim(t), "f", core.COO, tensor.Shape{1 << 31, 1 << 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Write(mustFromFlat(t, 2, 7, 1<<30), []float64{1}); err != nil {
		t.Fatal(err)
	}
	big := uint64(1) << 40
	ch, err := NewChunked(newSim(t), "c", core.Linear, tensor.Shape{big, big, big, big}, tensor.Shape{1 << 15, 1 << 15, 1 << 15, 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Write(mustFromFlat(t, 4, 0, 1, 2, 3, big-1, big-1, big-1, big-1), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name  string
		query func(context.Context, QueryRequest) (*Result, *ReadReport, error)
		shape tensor.Shape
		want  int
	}{{"flat", flat.Query, flat.Shape(), 1}, {"chunked", ch.Query, ch.Shape(), 2}}
	for _, tg := range targets {
		whole := tensor.Region{Start: make([]uint64, tg.shape.Dims()), Size: tg.shape}
		_, _, err := tg.query(ctx, QueryRequest{Region: &whole, AsOf: AsOfLatest})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: default-strategy whole-shape read: err = %v, want ErrBadRequest", tg.name, err)
		}
		for _, strat := range []Strategy{StrategyScan, StrategyAuto} {
			res, _, err := tg.query(ctx, QueryRequest{Region: &whole, AsOf: AsOfLatest, Strategy: strat})
			if err != nil || res.Coords.Len() != tg.want {
				t.Fatalf("%s: %v whole-shape read: %v points, err %v; want %d", tg.name, strat, res, err, tg.want)
			}
		}
	}
}

// TestWriteBatchContextCanceled: a pre-canceled context commits
// nothing; the store is unchanged.
func TestWriteBatchContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batches := ingestBatches(rng, tensor.Shape{20, 20}, 4, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var reports int
	err = st.WriteBatchContext(ctx, batches, 2, func(i int, rep *WriteReport, err error) error {
		if err != nil {
			return err
		}
		reports++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reports != 0 || st.Fragments() != 0 {
		t.Fatalf("canceled ingest committed %d batches, %d fragments", reports, st.Fragments())
	}
}

// TestKernelContextCanceled: push-down kernels observe cancellation.
func TestKernelContextCanceled(t *testing.T) {
	st, err := Create(newSim(t), "s", core.COO, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(mustFromFlat(t, 2, 1, 1, 2, 2), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Kernel(ctx, KernelRequest{Op: KernelSumAll}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sum: err = %v, want context.Canceled", err)
	}
	if _, err := st.Kernel(ctx, KernelRequest{Op: KernelLiveNNZ, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("nnz: err = %v, want context.Canceled", err)
	}
}
