package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/gen"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// workload is one traffic mix over one served store. Every input is a
// function of the seed; the program only sees the generated requests.
type workload interface {
	config() stackConfig
	// setup loads the store through the served path and warms it; it
	// runs once per fresh stack and adds its writes to ph.
	setup(ctx context.Context, st *stack, ph *phase) error
	// run drives one timed phase of length d.
	run(ctx context.Context, st *stack, d time.Duration, ph *phase) error
	// liveNNZ is the number of live points once the last phase ended.
	liveNNZ() int
	// sizes describes the data set for the run record.
	sizes() map[string]any
}

// newWorkload builds the named workload from seed. tiny shrinks every
// size for the self-test; seconds fixes the writer's total work where
// a workload has one.
func newWorkload(name string, seed int64, seconds float64, tiny bool) (workload, error) {
	switch name {
	case "hot-read":
		return newHotRead(seed, tiny)
	case "cold-scan":
		return newColdScan(seed, tiny)
	case "ingest-read":
		return newIngestRead(seed, seconds, tiny)
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-read, cold-scan or ingest-read)", name)
}

// userBytes is what a point costs its user: its coordinates and value.
func userBytes(dims int) int64 { return int64(dims)*8 + 8 }

// staticRead is a store loaded once in setup and then only read: the
// hot-read and cold-scan workloads.
type staticRead struct {
	cfg     stackConfig
	orc     *oracle
	batches []store.Batch // ingest order; perCall batches per WriteBatch
	perCall int
	ops     []op // replayed cyclically, closed loop
	warmOps int
	size    map[string]any
}

func (w *staticRead) config() stackConfig   { return w.cfg }
func (w *staticRead) liveNNZ() int          { return w.orc.nnz() }
func (w *staticRead) sizes() map[string]any { return w.size }

func (w *staticRead) setup(ctx context.Context, st *stack, ph *phase) error {
	start := time.Now()
	for i := 0; i < len(w.batches); i += w.perCall {
		o := &op{kind: opWrite, batches: w.batches[i:min(i+w.perCall, len(w.batches))]}
		lat, reqErr, _ := st.exec(ctx, 0, o, time.Now())
		ph.record(opWrite, lat, reqErr, nil)
		if reqErr != nil {
			return fmt.Errorf("ingest: %w", reqErr)
		}
		for _, b := range o.batches {
			ph.ingestPts += int64(len(b.Values))
			ph.ingestBytes += int64(len(b.Values)) * userBytes(w.cfg.shape.Dims())
		}
	}
	ph.writerWall += time.Since(start)
	c := st.clients[0]
	// One sum over the whole tensor loads every fragment once and checks
	// the ingest before any timed request.
	whole := tensor.Region{Start: make([]uint64, w.cfg.shape.Dims()), Size: w.cfg.shape.Clone()}
	res, err := c.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &whole})
	if err != nil {
		return fmt.Errorf("warm-up sum: %w", err)
	}
	if err := w.orc.checkSum(whole, res); err != nil {
		return fmt.Errorf("after ingest: %w", err)
	}
	for i := 0; i < w.warmOps; i++ {
		o := &w.ops[len(w.ops)-1-i%len(w.ops)]
		if _, reqErr, wrong := st.exec(ctx, 0, o, time.Now()); reqErr != nil || wrong != nil {
			return fmt.Errorf("warm-up: %v %v", reqErr, wrong)
		}
	}
	return nil
}

func (w *staticRead) run(ctx context.Context, st *stack, d time.Duration, ph *phase) error {
	runClosed(ctx, st, w.ops, d, ph)
	return nil
}

// generate runs the in-repo generator and wraps its output in an
// oracle over the whole tensor.
func generate(cfg gen.Config) (*gen.Dataset, *oracle, error) {
	cfg.Workers = 1
	ds, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	origin := make([]uint64, cfg.Shape.Dims())
	return ds, newOracle(origin, cfg.Shape, ds.Coords.Flat(), ds.Values), nil
}

// interleave deals the points into n batches round-robin, so every
// batch spans the whole tensor and lands one fragment in each tile.
func interleave(ds *gen.Dataset, n int) []store.Batch {
	dims := ds.Coords.Dims()
	out := make([]store.Batch, n)
	for b := range out {
		out[b] = store.Batch{Coords: tensor.NewCoords(dims, ds.NNZ()/n+1)}
	}
	for i := 0; i < ds.NNZ(); i++ {
		b := &out[i%n]
		b.Coords.Append(ds.Coords.At(i)...)
		b.Values = append(b.Values, ds.Values[i])
	}
	return out
}

// cube returns a shape with every extent m.
func cube(dims int, m uint64) tensor.Shape {
	s := make(tensor.Shape, dims)
	for i := range s {
		s[i] = m
	}
	return s
}

// window returns a region of the given edge starting at start.
func window(start []uint64, edge uint64) tensor.Region {
	return tensor.Region{Start: start, Size: cube(len(start), edge)}
}

// opsPerPhase is how many requests a closed-loop workload pre-generates
// and then replays cyclically.
const opsPerPhase = 8192

// newHotRead builds hot-read: a 2-D MSP tensor as GCSR++ whose store
// fits the default reader cache, read with Zipf-skewed region reads,
// probes and region sums aimed at the dense cluster.
func newHotRead(seed int64, tiny bool) (workload, error) {
	m, tile, frags, region, sum, warm := uint64(4096), uint64(512), 16, uint64(64), uint64(256), 500
	clusterProb := 0.1
	if tiny {
		m, tile, frags, region, sum, warm = 256, 64, 4, 16, 64, 50
	}
	shape := cube(2, m)
	cfg := gen.Config{
		Pattern: gen.MSP, Shape: shape, Seed: uint64(seed),
		Prob:         0.001,
		ClusterStart: []uint64{m / 3, m / 3}, ClusterSize: []uint64{m / 3, m / 3},
		ClusterProb: clusterProb,
	}
	ds, orc, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	center := m / 2
	// skewed returns a window start near the cluster's center: the
	// offset from it is Zipf-distributed in steps of m/128.
	skewed := func(edge uint64) []uint64 {
		p := make([]uint64, 2)
		for d := range p {
			off := int64(zipf.Uint64()) * int64(m/128)
			if rng.Intn(2) == 0 {
				off = -off
			}
			p[d] = uint64(clamp(int64(center)-int64(edge/2)+off, 0, int64(m-edge)))
		}
		return p
	}
	ops := make([]op, opsPerPhase)
	for i := range ops {
		o := &ops[i]
		o.orc = orc
		switch r := rng.Intn(10); {
		case r < 6:
			o.kind, o.region = opRegion, window(skewed(region), region)
		case r < 9:
			o.kind, o.probe = opProbe, probePoints(rng, skewed(64), 64, 16)
		default:
			o.kind, o.region = opKernel, window(skewed(sum), sum)
		}
	}
	w := &staticRead{
		cfg: stackConfig{
			kind: core.GCSR, shape: shape, tile: cube(2, tile), shards: 2, clients: 1,
		},
		orc: orc, batches: interleave(ds, frags), perCall: 4, ops: ops, warmOps: warm,
		size: map[string]any{
			"shape": shape, "tile": cube(2, tile), "kind": "GCSR++", "pattern": "MSP",
			"nnz": ds.NNZ(), "fragments_per_tile": frags, "cache_budget_bytes_per_shard": store.DefaultCacheBudget,
		},
	}
	return w, nil
}

// probePoints draws n distinct points uniformly from the square window
// of the given edge at start, in row-major order.
func probePoints(rng *rand.Rand, start []uint64, edge uint64, n int) *tensor.Coords {
	seen := map[[2]uint64]bool{}
	pts := make([][2]uint64, 0, n)
	for len(pts) < n {
		p := [2]uint64{start[0] + uint64(rng.Int63n(int64(edge))), start[1] + uint64(rng.Int63n(int64(edge)))}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(a, b int) bool { return lessPoint(pts[a][:], pts[b][:]) })
	c := tensor.NewCoords(2, n)
	for _, p := range pts {
		c.Append(p[0], p[1])
	}
	return c
}

func clamp(v, lo, hi int64) int64 {
	return max(lo, min(v, hi))
}

// newColdScan builds cold-scan: a 3-D GSP tensor as CSF whose fragments
// exceed each shard's reader-cache budget, read uniformly with region
// reads and region sums.
func newColdScan(seed int64, tiny bool) (workload, error) {
	m, tile, region, sum, warm := uint64(256), uint64(64), uint64(32), uint64(128), 200
	budget := int64(1 << 20)
	if tiny {
		m, tile, region, sum, warm = 32, 16, 8, 16, 50
		budget = 16 << 10
	}
	shape := cube(3, m)
	ds, orc, err := generate(gen.Config{Pattern: gen.GSP, Shape: shape, Seed: uint64(seed), Prob: 0.02})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	uniform := func(edge uint64) []uint64 {
		p := make([]uint64, 3)
		for d := range p {
			p[d] = uint64(rng.Int63n(int64(m - edge + 1)))
		}
		return p
	}
	ops := make([]op, opsPerPhase)
	for i := range ops {
		o := &ops[i]
		o.orc = orc
		if rng.Intn(10) < 8 {
			o.kind, o.region = opRegion, window(uniform(region), region)
		} else {
			o.kind, o.region = opKernel, window(uniform(sum), sum)
		}
	}
	w := &staticRead{
		cfg: stackConfig{
			kind: core.CSF, shape: shape, tile: cube(3, tile), shards: 2, clients: 1,
			cacheBudget: budget,
		},
		orc: orc, batches: interleave(ds, 1), perCall: 1, ops: ops, warmOps: warm,
		size: map[string]any{
			"shape": shape, "tile": cube(3, tile), "kind": "CSF", "pattern": "GSP",
			"nnz": ds.NNZ(), "fragments_per_tile": 1, "cache_budget_bytes_per_shard": budget,
		},
	}
	return w, nil
}

// ingestRead is the rolling time-series workload: a closed-loop writer
// appends time slabs (rows) while an open-loop reader reads the live
// window.
type ingestRead struct {
	cfg       stackConfig
	seed      int64
	cols      uint64
	slabRows  uint64
	perCall   int     // slabs per WriteBatch call
	window    int     // calls whose slabs stay live
	density   float64 // per-cell occupancy of a slab
	region    uint64  // reader window edge
	readRate  float64 // reader requests per second
	prefill   int     // calls made in setup
	callsPerS float64 // writer calls per second of run time; fixes its work
	calls     int     // calls made so far
	state     *slabState
	rng       *rand.Rand
}

// slabState is what writer and reader share: the live window of
// acknowledged slabs with their oracles, the slabs the writer's
// in-flight call may change, and the slab the reader has in flight.
type slabState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	lo, hi   int // live, acknowledged slabs [lo, hi)
	slabs    map[int]*oracle
	busy     map[int]bool // slabs the writer's in-flight call overwrites or deletes
	reading  int          // slab of the reader's in-flight request, -1 if none
	writerOn bool
}

func newIngestRead(seed int64, seconds float64, tiny bool) (workload, error) {
	w := &ingestRead{
		seed: seed, cols: 2048, slabRows: 64, perCall: 4, window: 16,
		density: 0.01, region: 64, readRate: readRate, prefill: 16, callsPerS: writerCallsPerSecond,
	}
	if tiny {
		w.cols, w.slabRows, w.window, w.region, w.prefill = 256, 16, 4, 16, 4
	}
	calls := w.prefill + int(w.callsPerS*seconds) + 1
	tileRows := w.slabRows * uint64(w.perCall)
	w.cfg = stackConfig{
		kind: core.Linear, shards: 2, clients: 2,
		shape: tensor.Shape{uint64(calls) * tileRows, w.cols},
		tile:  tensor.Shape{tileRows, w.cols / 2},
	}
	w.rng = rand.New(rand.NewSource(seed))
	return w, nil
}

// Reader rate and writer pace of ingest-read. readRate sits well below
// what one reader sustains: its median region read took about 1.2 ms
// with the writer running on a 2-core machine. writerCallsPerSecond
// fixes the writer's total work in proportion to --seconds; on that
// machine the writer finished in about half the run time.
const (
	readRate             = 100.0
	writerCallsPerSecond = 40.0
)

func (w *ingestRead) config() stackConfig { return w.cfg }

func (w *ingestRead) liveNNZ() int {
	w.state.mu.Lock()
	defer w.state.mu.Unlock()
	n := 0
	for _, o := range w.state.slabs {
		n += o.nnz()
	}
	return n
}

func (w *ingestRead) sizes() map[string]any {
	return map[string]any{
		"shape": w.cfg.shape, "tile": w.cfg.tile, "kind": "LINEAR", "pattern": "GSP slabs",
		"slab": []uint64{w.slabRows, w.cols}, "slabs_per_call": w.perCall, "density": w.density,
		"window_slabs": w.window * w.perCall, "live_nnz": w.liveNNZ(),
		"read_rate_per_s": w.readRate, "writer_calls_per_s_of_run": w.callsPerS,
		"cache_budget_bytes_per_shard": store.DefaultCacheBudget,
	}
}

// slab generates slab s: rows [s·slabRows, (s+1)·slabRows) at the
// workload's density.
func (w *ingestRead) slab(s int) (*oracle, error) {
	ext := tensor.Shape{w.slabRows, w.cols}
	ds, err := gen.Generate(gen.Config{Pattern: gen.GSP, Shape: ext, Seed: uint64(w.seed)<<20 ^ uint64(s), Prob: w.density, Workers: 1})
	if err != nil {
		return nil, err
	}
	flat := ds.Coords.Flat()
	row0 := uint64(s) * w.slabRows
	vals := make([]float64, len(ds.Values))
	for i := 0; i < len(flat); i += 2 {
		flat[i] += row0
		vals[i/2] = gen.ValueAt(flat[i : i+2])
	}
	return newOracle([]uint64{row0, 0}, ext, flat, vals), nil
}

// overwrite rewrites a random 5% of o's points with new values.
func (w *ingestRead) overwrite(o *oracle) (store.Batch, *oracle) {
	vals := append([]float64(nil), o.vals...)
	b := store.Batch{Coords: tensor.NewCoords(2, 0)}
	for i := range vals {
		if w.rng.Intn(20) == 0 {
			vals[i] += 0.5
			b.Coords.Append(o.flat[2*i], o.flat[2*i+1])
			b.Values = append(b.Values, vals[i])
		}
	}
	return b, newOracle(o.origin, o.shape, o.flat, vals)
}

func (w *ingestRead) setup(ctx context.Context, st *stack, _ *phase) error {
	w.calls = 0
	w.rng = rand.New(rand.NewSource(w.seed))
	w.state = &slabState{slabs: map[int]*oracle{}, reading: -1}
	w.state.cond = sync.NewCond(&w.state.mu)
	for i := 0; i < w.prefill; i++ {
		if _, err := w.call(ctx, st, nil); err != nil {
			return err
		}
	}
	// Read every live slab once through the served path.
	for s := w.state.lo; s < w.state.hi; s++ {
		o := w.readOp(s, w.rng)
		if _, reqErr, wrong := st.exec(ctx, 0, o, time.Now()); reqErr != nil || wrong != nil {
			return fmt.Errorf("warm-up: %v %v", reqErr, wrong)
		}
	}
	return nil
}

// readOp is a region read of slab s at a random column, checked
// against the slab's oracle as it stands now.
func (w *ingestRead) readOp(s int, rng *rand.Rand) *op {
	col := uint64(rng.Int63n(int64(w.cols - w.region + 1)))
	return &op{
		kind:   opRegion,
		region: tensor.Region{Start: []uint64{uint64(s) * w.slabRows, col}, Size: []uint64{w.slabRows, w.region}},
		orc:    w.state.slabs[s],
	}
}

// call makes the writer's next call: one WriteBatch of perCall new
// slabs (every 10th call also overwriting 5% of the newest live slab),
// then, once the window is full, one DeleteRegion of the oldest call's
// slabs. It returns the points acknowledged. ph, when set, books the
// requests.
func (w *ingestRead) call(ctx context.Context, st *stack, ph *phase) (int64, error) {
	s := w.state
	k := w.calls
	w.calls++
	first := k * w.perCall
	var batches []store.Batch
	fresh := map[int]*oracle{}
	var pts int64
	for i := 0; i < w.perCall; i++ {
		o, err := w.slab(first + i)
		if err != nil {
			return 0, err
		}
		fresh[first+i] = o
		coords, err := tensor.FromFlat(2, o.flat)
		if err != nil {
			return 0, err
		}
		batches = append(batches, store.Batch{Coords: coords, Values: o.vals})
		pts += int64(o.nnz())
	}
	s.mu.Lock()
	busy := map[int]bool{}
	prev := s.hi - 1
	if k%10 == 9 && prev >= s.lo {
		b, o := w.overwrite(s.slabs[prev])
		batches = append(batches, b)
		fresh[prev] = o
		busy[prev] = true
		pts += int64(len(b.Values))
	}
	del := s.hi-s.lo >= w.window*w.perCall
	if del {
		for i := 0; i < w.perCall; i++ {
			busy[s.lo+i] = true
		}
	}
	s.busy = busy
	for busy[s.reading] {
		s.cond.Wait() // a read of a slab about to change is in flight
	}
	s.mu.Unlock()

	wr := &op{kind: opWrite, batches: batches}
	lat, reqErr, _ := st.exec(ctx, 1, wr, time.Now())
	if ph != nil {
		ph.record(opWrite, lat, reqErr, nil)
	}
	if reqErr != nil {
		return 0, reqErr
	}
	if del {
		rows := uint64(w.perCall) * w.slabRows
		dl := &op{kind: opDelete, region: tensor.Region{Start: []uint64{uint64(s.lo) * w.slabRows, 0}, Size: []uint64{rows, w.cols}}}
		lat, reqErr, _ := st.exec(ctx, 1, dl, time.Now())
		if ph != nil {
			ph.record(opDelete, lat, reqErr, nil)
		}
		if reqErr != nil {
			return 0, reqErr
		}
	}
	s.mu.Lock()
	for i, o := range fresh {
		s.slabs[i] = o
	}
	s.hi = first + w.perCall
	if del {
		for i := 0; i < w.perCall; i++ {
			delete(s.slabs, s.lo)
			s.lo++
		}
	}
	s.busy = nil
	s.mu.Unlock()
	return pts, nil
}

func (w *ingestRead) run(ctx context.Context, st *stack, d time.Duration, ph *phase) error {
	calls := int(w.callsPerS * d.Seconds())
	s := w.state
	s.mu.Lock()
	s.writerOn = true
	s.mu.Unlock()
	start := time.Now()
	ph.start = start
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = w.read(ctx, st, ph)
	}()
	var werr error
	for i := 0; i < calls && werr == nil; i++ {
		var pts int64
		pts, werr = w.call(ctx, st, ph)
		ph.mu.Lock()
		ph.ingestPts += pts
		ph.mu.Unlock()
	}
	ph.writerWall = time.Since(start)
	ph.ingestBytes = ph.ingestPts * userBytes(2)
	s.mu.Lock()
	s.writerOn = false
	s.mu.Unlock()
	wg.Wait()
	ph.elapsed = time.Since(start)
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	return readErr
}

// read is the open-loop reader: one region read every 1/readRate
// seconds of schedule, each timed from when it was due, sent only
// after the previous one returned. It targets only acknowledged slabs
// the writer's in-flight call leaves alone, Zipf-skewed towards the
// newest.
func (w *ingestRead) read(ctx context.Context, st *stack, ph *phase) error {
	s := w.state
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	interval := time.Duration(float64(time.Second) / w.readRate)
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.mu.Lock()
		if !s.writerOn {
			s.mu.Unlock()
			return nil
		}
		n := s.hi - s.lo
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
		slab := -1
		for try := 0; try < 8 && slab < 0; try++ {
			if c := s.hi - 1 - int(zipf.Uint64()); !s.busy[c] {
				slab = c
			}
		}
		if slab < 0 {
			s.mu.Unlock()
			continue
		}
		s.reading = slab
		o := w.readOp(slab, rng)
		s.mu.Unlock()
		sent := time.Now()
		lat, reqErr, wrong := st.exec(ctx, 0, o, due)
		s.mu.Lock()
		s.reading = -1
		s.cond.Broadcast()
		s.mu.Unlock()
		ph.record(opRegion, lat, reqErr, wrong)
		ph.mu.Lock()
		ph.lags = append(ph.lags, sent.Sub(due))
		ph.mu.Unlock()
		if wrong != nil {
			return wrong
		}
	}
}
