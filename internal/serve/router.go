package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// Router-level span names: one per routed request kind, wrapping the
// whole scatter-gather so a stitched trace shows fan-out under them.
const (
	obsRouterQuery  = "router.query"
	obsRouterKernel = "router.kernel"
)

// Router consistent-hashes tile keys across shard servers and
// presents the same Backend surface a single store does: scatter-
// gather region reads merge in linear-address order (byte-identical to
// one local Chunked store over the same writes), WriteBatch fans out
// per shard over the streaming ingest API, and telemetry scrapes
// absorb every shard's counters. Each shard must host a Chunked store
// with the same global shape, tile extents, and kind — the router
// checks at construction. Tile geometry (index, key, region walk) is
// the shards' own store.Grid, and merging is store.MergeRuns.
type Router struct {
	grid *store.Grid
	kind uint8 // core.Kind of every shard

	addrs   []string
	clients []*Client
	ring    hashRing
	reg     *obs.Registry

	obsMu sync.Mutex
	prev  []*obs.Snapshot // last absorbed snapshot per shard
}

// NewRouter dials every shard, verifies they agree on shape, tile, and
// kind, and builds the hash ring. reg receives the router's own
// metrics plus absorbed shard deltas; nil uses the process-global
// registry.
func NewRouter(addrs []string, reg *obs.Registry) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("serve: %w: router needs at least one shard", store.ErrBadRequest)
	}
	if reg == nil {
		reg = obs.Global()
	}
	r := &Router{addrs: addrs, reg: reg, prev: make([]*obs.Snapshot, len(addrs))}
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("serve: %w: shard %d (%s): %v", wire.ErrShardUnavailable, i, addr, err)
		}
		r.clients = append(r.clients, c)
		info, err := c.Info(context.Background())
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("serve: shard %d (%s) info: %w", i, addr, err)
		}
		if len(info.Tile) == 0 {
			r.closeClients()
			return nil, fmt.Errorf("serve: %w: shard %d (%s) hosts an untiled store", store.ErrBadRequest, i, addr)
		}
		if i == 0 {
			if r.grid, err = store.NewGrid(info.Shape, info.Tile); err != nil {
				r.closeClients()
				return nil, fmt.Errorf("serve: %w: shard %d (%s): %v", store.ErrBadRequest, i, addr, err)
			}
			r.kind = uint8(info.Kind)
		} else if !r.grid.Shape().Equal(info.Shape) || !r.grid.Tile().Equal(info.Tile) || r.kind != uint8(info.Kind) {
			r.closeClients()
			return nil, fmt.Errorf("serve: %w: shard %d (%s) disagrees on shape/tile/kind", store.ErrBadRequest, i, addr)
		}
	}
	r.ring = newRing(addrs)
	r.reg.Gauge("router.shards").Set(int64(len(addrs)))
	return r, nil
}

// Close tears down every shard connection.
func (r *Router) Close() error {
	r.closeClients()
	return nil
}

func (r *Router) closeClients() {
	for _, c := range r.clients {
		c.Close()
	}
}

// Shards returns the shard addresses in ring order of declaration.
func (r *Router) Shards() []string { return r.addrs }

// kindName labels the shards' organization for spans and slow-log rows.
func (r *Router) kindName() string { return core.Kind(r.kind).String() }

// owner maps a tile index to its shard by consistent hashing the tile
// key ("t-0-1"), the same string that names the tile directory.
func (r *Router) owner(idx []uint64) int {
	var buf [64]byte
	return r.ring.owner(r.grid.AppendKey(buf[:0], idx))
}

// shardErr classifies a shard call failure: typed protocol errors and
// context errors pass through, transport failures become
// ErrShardUnavailable.
func shardErr(i int, addr string, err error) error {
	if err == nil {
		return nil
	}
	var we *wire.Error
	if errors.As(err, &we) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err // the shard (or the caller) said something specific
	}
	return fmt.Errorf("serve: %w: shard %d (%s): %v", wire.ErrShardUnavailable, i, addr, err)
}

// regionShards returns, in ascending order, the shards owning at least
// one tile the region overlaps. The region must lie inside the shape.
func (r *Router) regionShards(region tensor.Region) []int {
	owns := make([]bool, len(r.clients))
	n := 0
	r.grid.Walk(region, nil, func(_ int, idx []uint64) bool {
		if s := r.owner(idx); !owns[s] {
			owns[s] = true
			n++
		}
		return n < len(owns) // stop once every shard is in play
	})
	shards := make([]int, 0, n)
	for i, ok := range owns {
		if ok {
			shards = append(shards, i)
		}
	}
	return shards
}

// present lists, in ascending order, the shards a per-shard partition
// gave work to.
func present[T any](parts []*T) []int {
	var shards []int
	for i, part := range parts {
		if part != nil {
			shards = append(shards, i)
		}
	}
	return shards
}

// scatter runs fn once per listed shard concurrently. The first shard
// to fail fatally cancels the context every other sub-request runs
// under, so siblings stop probing fragments for an answer the caller
// will never see. The error returned is the root cause: cancellations
// induced by a sibling's failure are reported only if no shard produced
// a real error of its own (and never when the caller's own ctx ended).
func (r *Router) scatter(ctx context.Context, shards []int, op string, fn func(ctx context.Context, i int) error) error {
	r.reg.Counter("router.scatter", "op", op).Add(int64(len(shards)))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for k, i := range shards {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			if err := shardErr(i, r.addrs[i], fn(cctx, i)); err != nil {
				errs[k] = err
				cancel() // fatal for the whole request: stop the siblings
			}
		}(k, i)
	}
	wg.Wait()
	var induced error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// This shard stopped because a sibling failed first; keep
			// looking for the failure that caused it.
			if induced == nil {
				induced = err
			}
			continue
		}
		r.reg.Counter("router.shard.errors", "op", op).Inc()
		return err
	}
	if induced != nil {
		r.reg.Counter("router.shard.errors", "op", op).Inc()
		return induced
	}
	return nil
}

// allShards lists every shard index.
func (r *Router) allShards() []int {
	shards := make([]int, len(r.clients))
	for i := range shards {
		shards[i] = i
	}
	return shards
}

// Info aggregates shard identities.
func (r *Router) Info(ctx context.Context) (*wire.Info, error) {
	infos := make([]*wire.Info, len(r.clients))
	err := r.scatter(ctx, r.allShards(), "info", func(ctx context.Context, i int) error {
		info, err := r.clients[i].Info(ctx)
		infos[i] = info
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &wire.Info{Kind: infos[0].Kind, Shape: r.grid.Shape(), Tile: r.grid.Tile()}
	for _, info := range infos {
		out.Fragments += info.Fragments
		out.Epoch += info.Epoch
		out.Tiles += info.Tiles
	}
	return out, nil
}

// Query scatter-gathers a read. Probe targets partition per point by
// owning tile; region targets broadcast the whole region to every
// shard owning an overlapping tile — each shard answers from the tiles
// it materialized, which are disjoint, so the merged result is exactly
// what one local Chunked store would return. Requests are checked with
// store.QueryRequest.Validate, so a region outside the shape is
// ErrBadRequest here as on every store.
func (r *Router) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	sp, ctx := r.reg.StartCtx(ctx, obsRouterQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	res, rep, err := r.queryAt(ctx, req)
	store.FinishRequestSpan(r.reg, ctx, sp, obsRouterQuery, r.kindName(), store.ReadCost(rep), err)
	return res, rep, err
}

// queryAt dispatches the routed read under the router.query span.
func (r *Router) queryAt(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	if err := req.Validate(r.grid.Shape()); err != nil {
		return nil, nil, err
	}
	if req.AsOf != store.AsOfLatest {
		return nil, nil, fmt.Errorf("serve: %w: as-of reads are not supported on routed stores", store.ErrBadRequest)
	}
	var parts []*pointPart
	var shards []int
	if req.Region != nil {
		shards = r.regionShards(*req.Region)
	} else {
		parts = r.partitionPoints(req.Probe, nil)
		shards = present(parts)
	}
	runs := make([]store.Run, len(r.clients))
	reports := make([]*store.ReadReport, len(r.clients))
	err := r.scatter(ctx, shards, "query", func(ctx context.Context, i int) error {
		sub := req
		if parts != nil {
			sub.Probe = parts[i].coords
		}
		res, rep, err := r.clients[i].Query(ctx, sub)
		runs[i].Result, reports[i] = res, rep
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &store.ReadReport{Shards: len(shards)}
	for _, sub := range reports {
		rep.Add(sub)
	}
	return store.MergeRuns(r.grid.Shape().Dims(), runs), rep, nil
}

// pointPart is one shard's slice of a partitioned point set.
type pointPart struct {
	coords *tensor.Coords
	values []float64 // writes only
	srcIdx []int     // original positions (ReadPoints reassembly)
}

// partitionPoints splits points (and optionally their values) by
// owning shard; nil entries mean the shard got no points.
func (r *Router) partitionPoints(coords *tensor.Coords, values []float64) []*pointPart {
	parts := make([]*pointPart, len(r.clients))
	idx := make([]uint64, coords.Dims())
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		r.grid.TileOf(idx, p)
		s := r.owner(idx)
		part := parts[s]
		if part == nil {
			part = &pointPart{coords: tensor.NewCoords(coords.Dims(), 0)}
			parts[s] = part
		}
		part.coords.Append(p...)
		if values != nil {
			part.values = append(part.values, values[i])
		}
		part.srcIdx = append(part.srcIdx, i)
	}
	return parts
}

// ReadPoints partitions the probe per shard and reassembles the
// aligned values and found marks in the original order.
func (r *Router) ReadPoints(ctx context.Context, probe *tensor.Coords) ([]float64, []bool, *store.ReadReport, error) {
	if err := (&store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest}).Validate(r.grid.Shape()); err != nil {
		return nil, nil, nil, err
	}
	parts := r.partitionPoints(probe, nil)
	shards := present(parts)
	vals := make([]float64, probe.Len())
	found := make([]bool, probe.Len())
	reports := make([]*store.ReadReport, len(r.clients))
	var mu sync.Mutex
	err := r.scatter(ctx, shards, "read_points", func(ctx context.Context, i int) error {
		v, f, rep, err := r.clients[i].ReadPoints(ctx, parts[i].coords)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		reports[i] = rep
		for k, src := range parts[i].srcIdx {
			vals[src] = v[k]
			found[src] = f[k]
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rep := &store.ReadReport{Shards: len(shards)}
	for _, sub := range reports {
		rep.Add(sub)
	}
	return vals, found, rep, nil
}

// Write partitions one fragment's points per owning shard and commits
// each slice on its shard.
func (r *Router) Write(ctx context.Context, coords *tensor.Coords, values []float64) (*store.WriteReport, error) {
	shape := r.grid.Shape()
	if coords.Dims() != shape.Dims() {
		return nil, fmt.Errorf("store: %w: %d-dim coords for %d-dim store", store.ErrShapeMismatch, coords.Dims(), shape.Dims())
	}
	if coords.Len() != len(values) {
		return nil, fmt.Errorf("store: %w: %d coords, %d values", store.ErrShapeMismatch, coords.Len(), len(values))
	}
	if !coords.InShape(shape) {
		return nil, fmt.Errorf("store: %w: coordinate outside shape %v", store.ErrShapeMismatch, shape)
	}
	parts := r.partitionPoints(coords, values)
	shards := present(parts)
	reps := make([]*store.WriteReport, len(r.clients))
	err := r.scatter(ctx, shards, "write", func(ctx context.Context, i int) error {
		rep, err := r.clients[i].Write(ctx, parts[i].coords, parts[i].values)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	return sumWriteReports(reps), nil
}

// sumWriteReports sums per-shard write reports into one.
func sumWriteReports(reps []*store.WriteReport) *store.WriteReport {
	out := &store.WriteReport{}
	for _, rep := range reps {
		out.Add(rep)
	}
	return out
}

// WriteBatch fans the batches out per shard over the streaming ingest
// API: each shard receives its slice of every batch as one WriteBatch
// call (batch order preserved), and the returned reports line up with
// the caller's batches, merging the per-shard pieces of each.
func (r *Router) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	type shardBatch struct {
		src     []int // original batch index per sub-batch
		batches []store.Batch
	}
	perShard := make([]*shardBatch, len(r.clients))
	for bi, b := range batches {
		if b.Coords == nil || b.Coords.Dims() != r.grid.Shape().Dims() {
			return nil, fmt.Errorf("store: %w: batch %d dims", store.ErrShapeMismatch, bi)
		}
		parts := r.partitionPoints(b.Coords, b.Values)
		for i, part := range parts {
			if part == nil {
				continue
			}
			sb := perShard[i]
			if sb == nil {
				sb = &shardBatch{}
				perShard[i] = sb
			}
			sb.src = append(sb.src, bi)
			sb.batches = append(sb.batches, store.Batch{Coords: part.coords, Values: part.values})
		}
	}
	shards := present(perShard)
	shardReps := make([][]*store.WriteReport, len(r.clients))
	err := r.scatter(ctx, shards, "write_batch", func(ctx context.Context, i int) error {
		reps, err := r.clients[i].WriteBatch(ctx, perShard[i].batches, workers)
		shardReps[i] = reps
		return err
	})
	// Sum each batch's pieces in shard order. A piece names its tile
	// fragment and epoch; the sum keeps the first piece's.
	out := make([]*store.WriteReport, len(batches))
	for _, i := range shards {
		reps := shardReps[i]
		for k, rep := range reps[:min(len(reps), len(perShard[i].src))] {
			src := perShard[i].src[k]
			if out[src] == nil {
				out[src] = &store.WriteReport{Name: rep.Name, Epoch: rep.Epoch}
			}
			out[src].Add(rep)
		}
	}
	n := 0
	for n < len(out) && out[n] != nil {
		n++ // committed prefix only, matching local semantics
	}
	return out[:n], err
}

// DeleteRegion broadcasts the tombstone to every shard owning an
// overlapping tile. The region must lie inside the shape
// (store.ValidateRegion).
func (r *Router) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	if err := store.ValidateRegion(r.grid.Shape(), region); err != nil {
		return nil, err
	}
	shards := r.regionShards(region)
	reps := make([]*store.WriteReport, len(r.clients))
	err := r.scatter(ctx, shards, "delete", func(ctx context.Context, i int) error {
		rep, err := r.clients[i].DeleteRegion(ctx, region)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	return sumWriteReports(reps), nil
}

// Kernel scatter-gathers the additive push-down kernels; per-shard
// partials sum exactly because shard tiles are disjoint. SpMV and TTV
// need cross-tile accumulators and are rejected, as on Chunked. A
// sum_region region must lie inside the shape (store.ValidateRegion).
func (r *Router) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	sp, ctx := r.reg.StartCtx(ctx, obsRouterKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, err := r.kernelAt(ctx, req)
	var rep *store.PushReport
	if res != nil {
		rep = res.Report
	}
	store.FinishRequestSpan(r.reg, ctx, sp, obsRouterKernel, r.kindName(), store.PushCost(rep), err)
	return res, err
}

// kernelAt dispatches the routed kernel under the router.kernel span.
func (r *Router) kernelAt(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	switch req.Op {
	case store.KernelSumAll, store.KernelLiveNNZ, store.KernelNNZPerSlice:
	case store.KernelSumRegion:
	default:
		return nil, fmt.Errorf("serve: %w: kernel %v is not supported on routed stores", store.ErrBadRequest, req.Op)
	}
	shards := r.allShards()
	if req.Op == store.KernelSumRegion && req.Region != nil {
		if err := store.ValidateRegion(r.grid.Shape(), *req.Region); err != nil {
			return nil, err
		}
		shards = r.regionShards(*req.Region)
	}
	results := make([]*store.KernelResult, len(r.clients))
	err := r.scatter(ctx, shards, "kernel", func(ctx context.Context, i int) error {
		res, err := r.clients[i].Kernel(ctx, req)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &store.KernelResult{Report: &store.PushReport{}}
	for _, res := range results {
		if res == nil {
			continue
		}
		if out.Values == nil {
			out.Values = make([]float64, len(res.Values))
			out.Shape = res.Shape
		}
		for k, v := range res.Values {
			if k < len(out.Values) {
				out.Values[k] += v
			}
		}
		out.Report.Add(res.Report)
	}
	return out, nil
}

// RefreshObs pulls every shard's telemetry snapshot, absorbs the delta
// since the previous pull into the router's registry (monotonic: each
// shard increment lands exactly once), and remembers the new baseline.
// This is the obs/serve OnScrape hook — a scrape of the router's
// /metrics sees the whole fleet.
func (r *Router) RefreshObs(ctx context.Context) error {
	snaps := make([]*obs.Snapshot, len(r.clients))
	err := r.scatter(ctx, r.allShards(), "obs", func(ctx context.Context, i int) error {
		snap, err := r.clients[i].ObsSnapshot(ctx)
		snaps[i] = snap
		return err
	})
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	for i, snap := range snaps {
		if snap == nil {
			continue // unreachable shard: keep its old baseline
		}
		if r.prev[i] != nil {
			r.reg.Absorb(obs.Delta(r.prev[i], snap))
		} else {
			r.reg.Absorb(snap)
		}
		r.prev[i] = snap
	}
	return err
}

// ObsSnapshot refreshes from the shards and returns the aggregated
// registry snapshot — Backend's telemetry surface, so a served router
// answers MsgObs with fleet-wide counters.
func (r *Router) ObsSnapshot(ctx context.Context) ([]byte, error) {
	if err := r.RefreshObs(ctx); err != nil {
		return nil, err
	}
	return r.reg.Snapshot().JSON()
}

var _ Backend = (*Router)(nil)
