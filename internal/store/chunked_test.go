package store

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

func TestChunkedMatchesFlatStore(t *testing.T) {
	shape := tensor.Shape{20, 20}
	tile := tensor.Shape{8, 8} // does not divide evenly: edge tiles clip
	rng := rand.New(rand.NewSource(2))
	coords, vals := randomPoints(rng, shape, 150)

	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			flatFS, chunkFS := newSim(t), newSim(t)
			flat, err := Create(flatFS, "flat", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := NewChunked(chunkFS, "chunked", kind, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Write(coords, vals); err != nil {
				t.Fatal(err)
			}
			if _, err := chunked.Write(coords, vals); err != nil {
				t.Fatal(err)
			}

			region, err := tensor.NewRegion(shape, []uint64{3, 3}, []uint64{14, 12})
			if err != nil {
				t.Fatal(err)
			}
			fres, _, err := flat.ReadRegion(region)
			if err != nil {
				t.Fatal(err)
			}
			cres, _, err := chunked.ReadRegion(region)
			if err != nil {
				t.Fatal(err)
			}
			if !fres.Coords.Equal(cres.Coords) {
				t.Fatalf("coords differ: flat %d points, chunked %d",
					fres.Coords.Len(), cres.Coords.Len())
			}
			for i := range fres.Values {
				if fres.Values[i] != cres.Values[i] {
					t.Fatalf("value %d differs", i)
				}
			}
		})
	}
}

func TestChunkedHandlesOverflowShape(t *testing.T) {
	// The whole point of chunking (§II-B): a tensor whose volume
	// overflows uint64. (2^40)^4 = 2^160 cells.
	big := uint64(1) << 40
	shape := tensor.Shape{big, big, big, big}
	if _, ok := shape.Volume(); ok {
		t.Fatal("test shape should overflow")
	}
	tile := tensor.Shape{1 << 15, 1 << 15, 1 << 15, 1 << 15} // tile volume 2^60 fits
	fs := newSim(t)
	st, err := NewChunked(fs, "huge", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(4, 0)
	coords.Append(0, 1, 2, 3)                         // tile (0,0,0,0)
	coords.Append(big-1, big-1, big-1, big-1)         // far corner tile
	coords.Append(1<<20, 0, 5, 9)                     // tile (1,0,0,0)
	coords.Append((1<<20)+7, 3, 1<<21, (1<<22)+12345) // mixed tile
	vals := []float64{1, 2, 3, 4}
	if _, err := st.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	if st.Tiles() != 4 {
		t.Fatalf("tiles = %d, want 4", st.Tiles())
	}
	res, _, err := st.Read(coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 4 {
		t.Fatalf("read back %d of 4 points", res.Coords.Len())
	}
	// Results come back in global lexicographic order.
	byAddr := map[[4]uint64]float64{}
	for i := 0; i < res.Coords.Len(); i++ {
		p := res.Coords.At(i)
		byAddr[[4]uint64{p[0], p[1], p[2], p[3]}] = res.Values[i]
	}
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		if byAddr[[4]uint64{p[0], p[1], p[2], p[3]}] != vals[i] {
			t.Fatalf("point %v lost or wrong value", p)
		}
	}
	// Probes for absent points in absent tiles are fine.
	miss := tensor.NewCoords(4, 0)
	miss.Append(42, 42, 42, 42)
	res, _, err = st.Read(miss)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("absent probe: %d found, %v", res.Coords.Len(), err)
	}
	// A whole-shape region spans 2^100 tile-grid cells but only four
	// materialized tiles: the tile walk must filter those four rather
	// than walk the grid.
	ctx := context.Background()
	whole := tensor.Region{Start: make([]uint64, 4), Size: shape}
	for _, strat := range []Strategy{StrategyScan, StrategyAuto} {
		res, _, err := st.Query(ctx, QueryRequest{Region: &whole, AsOf: AsOfLatest, Strategy: strat})
		if err != nil || res.Coords.Len() != 4 {
			t.Fatalf("%v whole-shape read: %v, %v; want 4 points", strat, res, err)
		}
	}
	sum, err := st.Kernel(ctx, KernelRequest{Op: KernelSumRegion, Region: &whole, Workers: 1})
	if err != nil || sum.Values[0] != 10 {
		t.Fatalf("whole-shape sum_region: %v, %v; want 10", sum, err)
	}
	if _, err := st.DeleteRegion(whole); err != nil {
		t.Fatal(err)
	}
	live, err := st.Kernel(ctx, KernelRequest{Op: KernelLiveNNZ, Workers: 1})
	if err != nil || live.Values[0] != 0 {
		t.Fatalf("live cells after a whole-shape delete: %v, %v; want 0", live, err)
	}
}

func TestChunkedEdgeTilesClip(t *testing.T) {
	shape := tensor.Shape{10}
	tile := tensor.Shape{4} // tiles: [0,4) [4,8) [8,10)
	fs := newSim(t)
	st, err := NewChunked(fs, "edge", core.GCSR, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(1, 0)
	coords.Append(9) // lives in the clipped tile [8,10)
	if _, err := st.Write(coords, []float64{5}); err != nil {
		t.Fatal(err)
	}
	res, _, err := st.Read(coords)
	if err != nil || res.Coords.Len() != 1 || res.Values[0] != 5 {
		t.Fatalf("clipped tile read: %v %v", res, err)
	}
	if got := st.grid.TileShape([]uint64{2}); !got.Equal(tensor.Shape{2}) {
		t.Fatalf("edge tile shape = %v, want {2}", got)
	}
}

func TestChunkedValidation(t *testing.T) {
	fs := newSim(t)
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{4, 4}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{0}); err == nil {
		t.Error("zero tile accepted")
	}
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10, 10},
		tensor.Shape{1 << 33, 1 << 33}); err == nil {
		t.Error("overflowing tile accepted")
	}
	if _, err := NewChunked(fs, "x", core.Kind(99), tensor.Shape{10}, tensor.Shape{4}); err == nil {
		t.Error("unknown kind accepted")
	}
	st, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.NewCoords(1, 0)
	bad.Append(10)
	if _, err := st.Write(bad, []float64{1}); err == nil {
		t.Error("out-of-shape point accepted")
	}
	if _, err := st.Write(tensor.NewCoords(1, 0), []float64{1}); err == nil {
		t.Error("value count mismatch accepted")
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(1, 1)
	if _, err := st.Write(c2, []float64{1}); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, _, err := st.Read(c2); err == nil {
		t.Error("probe dims mismatch accepted")
	}
}

func TestChunkedDeleteRegion(t *testing.T) {
	shape := tensor.Shape{20, 20}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := NewChunked(fs, "del", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(2, 0)
	coords.Append(1, 1)   // tile (0,0): inside the deletion
	coords.Append(9, 9)   // tile (1,1): inside the deletion
	coords.Append(18, 18) // tile (2,2): outside
	if _, err := st.Write(coords, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Delete the region [0,12) x [0,12), spanning four tiles.
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.DeleteRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes <= 0 {
		t.Fatalf("delete report: %+v", rep)
	}
	res, _, err := st.Read(coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 3 {
		t.Fatalf("after delete: %d cells (want only (18,18))", res.Coords.Len())
	}
	// A rewrite after the deletion is alive again.
	c2 := tensor.NewCoords(2, 0)
	c2.Append(9, 9)
	if _, err := st.Write(c2, []float64{42}); err != nil {
		t.Fatal(err)
	}
	res, _, err = st.Read(coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 2 {
		t.Fatalf("after rewrite: %d cells", res.Coords.Len())
	}
	// Validation.
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{0}, Size: []uint64{1}}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{19, 19}, Size: []uint64{5, 5}}); err == nil {
		t.Error("out-of-shape region accepted")
	}
}

func TestTileIndexFromKey(t *testing.T) {
	fs := newSim(t)
	st, err := NewChunked(fs, "k", core.COO, tensor.Shape{100, 100}, tensor.Shape{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := st.grid.ParseKey("t-3-12")
	if !ok || idx[0] != 3 || idx[1] != 12 {
		t.Fatalf("parsed %v", idx)
	}
	for _, bad := range []string{"t-3", "x-3-12", "t-3-12-9", "t-a-b", "t-03-12", "t--12", "t-+3-12", "t-99999999999999999999-1"} {
		if _, ok := st.grid.ParseKey(bad); ok {
			t.Errorf("bad key %q parsed", bad)
		}
	}
}

func TestChunkedAggregatesReports(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := NewChunked(fs, "agg", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(2, 0)
	coords.Append(0, 0)   // tile (0,0)
	coords.Append(15, 15) // tile (1,1)
	rep, err := st.Write(coords, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NNZ != 2 || rep.Bytes <= 0 || rep.Write <= 0 {
		t.Fatalf("aggregate write report: %+v", rep)
	}
	if st.TotalBytes() != rep.Bytes {
		t.Fatalf("TotalBytes %d != report bytes %d", st.TotalBytes(), rep.Bytes)
	}
	res, rrep, err := st.Read(coords)
	if err != nil || res.Coords.Len() != 2 {
		t.Fatalf("read: %v %v", res, err)
	}
	if rrep.Fragments != 2 || rrep.Found != 2 {
		t.Fatalf("aggregate read report: %+v", rrep)
	}
}

// TestChunkedTileCreationRace reads a chunked store while a writer
// materializes new tiles. Run under -race: tile creation inserts into
// the tile map that region queries, kernels and the accessors walk.
// Every read must see a prefix of the writes, and the final read all
// of them.
func TestChunkedTileCreationRace(t *testing.T) {
	shape, tile := tensor.Shape{64, 64}, tensor.Shape{8, 8}
	c, err := NewChunked(newSim(t), "race", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 64
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < writes; i++ {
			p := tensor.NewCoords(2, 1)
			p.Append(8*(i/8), 8*(i%8)) // one point in a new tile each call
			if _, err := c.WriteBatch([]Batch{{Coords: p, Values: []float64{float64(i + 1)}}}, 1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	whole, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func() int {
		res, _, err := c.Query(ctx, QueryRequest{Region: &whole, AsOf: AsOfLatest, Strategy: StrategyAuto})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Values {
			p := res.Coords.At(i)
			if want := float64(p[0]/8*8 + p[1]/8 + 1); res.Values[i] != want {
				t.Fatalf("point %v = %v, want %v", p, res.Values[i], want)
			}
		}
		return len(res.Values)
	}
	prev := 0
	for i := 0; i < 200; i++ {
		n := check()
		if n < prev {
			t.Fatalf("read %d saw %d points after %d", i, n, prev)
		}
		prev = n
		if _, err := c.Kernel(ctx, KernelRequest{Op: KernelLiveNNZ, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		_ = c.Fragments() + c.Tiles()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := check(); n != writes {
		t.Fatalf("final read saw %d points, want %d", n, writes)
	}
	if n := c.Tiles(); n != writes {
		t.Fatalf("%d tiles, want %d", n, writes)
	}
}

// TestReportAddSumsEveryCounter: Add sums every duration and count of
// the three reports and keeps the receiver's identity fields, so a
// field added to a report later cannot be silently dropped from the
// tile and shard sums.
func TestReportAddSumsEveryCounter(t *testing.T) {
	keep := map[string]bool{"Epoch": true, "Shards": true, "Name": true}
	for _, rep := range []interface{ add() }{&ReadReport{}, &PushReport{}, &WriteReport{}} {
		v := reflect.ValueOf(rep).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInt() {
				f.SetInt(int64(i + 1))
			} else if f.CanUint() {
				f.SetUint(uint64(i + 1))
			}
		}
		rep.add()
		for i := 0; i < v.NumField(); i++ {
			name, f := v.Type().Field(i).Name, v.Field(i)
			want := int64(2 * (i + 1))
			if keep[name] {
				want = int64(i + 1)
			}
			var got int64
			switch {
			case f.CanInt():
				got = f.Int()
			case f.CanUint():
				got = int64(f.Uint())
			default:
				continue
			}
			if got != want {
				t.Errorf("%s.%s = %d after adding it to itself, want %d", v.Type().Name(), name, got, want)
			}
		}
	}
}

// add adds a copy of each report to itself.
func (r *ReadReport) add()  { c := *r; r.Add(&c) }
func (r *PushReport) add()  { c := *r; r.Add(&c) }
func (r *WriteReport) add() { c := *r; r.Add(&c) }
