package store

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sparseart/internal/tensor"
)

// The chunked store's unified request surface. Probe targets partition
// by tile exactly like Chunked.Read always has; region targets
// intersect the region with each materialized tile and run the
// tile-local sub-region through the tile store's Query — so scan and
// auto strategies work per tile, and a region read touches only the
// tiles it covers instead of materializing every global cell. Results
// are sorted by global row-major order, which equals linear-address
// order: byte-identical to the flat store's merge, and the order the
// router's scatter-gather reproduces across shard processes.

// Query answers one QueryRequest against the chunked store. AsOf is
// rejected: fragment counts are per tile, so a global version number
// is not meaningful here.
func (c *Chunked) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.validate(c.shape.Dims()); err != nil {
		return nil, nil, err
	}
	if req.AsOf != AsOfLatest {
		return nil, nil, fmt.Errorf("store: %w: as-of reads are not supported on chunked stores", ErrBadRequest)
	}
	reg := c.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	var (
		res *Result
		rep *ReadReport
		err error
	)
	if req.Region != nil {
		res, rep, err = c.queryRegion(ctx, *req.Region, req.Strategy, req.Workers)
	} else {
		res, rep, err = c.queryProbe(ctx, req.Probe, req.Workers)
	}
	FinishRequestSpan(reg, ctx, sp, obsQuery, c.kind.String(), ReadCost(rep), err)
	return res, rep, err
}

// globalHit is one found point in global coordinates, collected across
// tiles before the final row-major sort.
type globalHit struct {
	p   []uint64
	val float64
}

// globalize appends a tile's result to hits, translated from the
// frame of the tile at idx to global coordinates.
func (c *Chunked) globalize(hits []globalHit, res *Result, idx []uint64) []globalHit {
	for i, n := 0, res.Coords.Len(); i < n; i++ {
		lp := res.Coords.At(i)
		gp := make([]uint64, len(lp))
		for d := range lp {
			gp[d] = lp[d] + idx[d]*c.tile[d]
		}
		hits = append(hits, globalHit{p: gp, val: res.Values[i]})
	}
	return hits
}

// finishHits sorts the collected hits into global row-major order —
// the same order the flat store's linear-address merge produces — and
// materializes the Result.
func (c *Chunked) finishHits(hits []globalHit, rep *ReadReport) *Result {
	t := time.Now()
	sort.Slice(hits, func(a, b int) bool {
		pa, pb := hits[a].p, hits[b].p
		for d := range pa {
			if pa[d] != pb[d] {
				return pa[d] < pb[d]
			}
		}
		return false
	})
	out := &Result{Coords: tensor.NewCoords(c.shape.Dims(), len(hits))}
	for _, h := range hits {
		out.Coords.Append(h.p...)
		out.Values = append(out.Values, h.val)
	}
	rep.Merge += time.Since(t)
	rep.Found = len(hits)
	return out
}

// queryProbe partitions the probe by tile and reads each tile's slice
// in tile-local coordinates; points outside the global shape or in
// tiles never written are simply not found.
func (c *Chunked) queryProbe(ctx context.Context, probe *tensor.Coords, workers int) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	type part struct {
		idx    []uint64
		coords *tensor.Coords
	}
	parts := map[string]*part{}
	var keys []string
	tiles := c.tileMap()
	local := make([]uint64, probe.Dims())
	for i, n := 0, probe.Len(); i < n; i++ {
		p := probe.At(i)
		if !c.shape.Contains(p) {
			continue
		}
		idx := c.tileIndex(p)
		key := tileKey(idx)
		if _, ok := tiles[key]; !ok {
			continue
		}
		g, ok := parts[key]
		if !ok {
			g = &part{idx: idx, coords: tensor.NewCoords(probe.Dims(), 0)}
			parts[key] = g
			keys = append(keys, key)
		}
		for d := range p {
			local[d] = p[d] - idx[d]*c.tile[d]
		}
		g.coords.Append(local...)
	}
	sort.Strings(keys)

	rep := &ReadReport{}
	var hits []globalHit
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		g := parts[key]
		res, r, err := tiles[key].Query(ctx, QueryRequest{Probe: g.coords, AsOf: AsOfLatest, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		addReadReport(rep, r)
		hits = c.globalize(hits, res, g.idx)
	}
	return c.finishHits(hits, rep), rep, nil
}

// tileClip intersects a global region with the tile at idx and returns
// the tile-local sub-region; ok is false when they do not overlap.
func (c *Chunked) tileClip(region tensor.Region, idx []uint64) (tensor.Region, bool) {
	ext := c.tileShape(idx)
	lo := make([]uint64, len(idx))
	size := make([]uint64, len(idx))
	for d := range idx {
		origin := idx[d] * c.tile[d]
		tileEnd := origin + ext[d]
		regEnd := region.Start[d] + region.Size[d]
		if regEnd < region.Start[d] {
			regEnd = math.MaxUint64 // start+size overflowed; clamp
		}
		l, h := max(region.Start[d], origin), tileEnd
		if regEnd < h {
			h = regEnd
		}
		if l >= h {
			return tensor.Region{}, false
		}
		lo[d] = l - origin
		size[d] = h - l
	}
	return tensor.Region{Start: lo, Size: size}, true
}

// queryRegion runs the region against every materialized tile it
// intersects, as a tile-local sub-region query, and merges the global
// results in row-major order.
func (c *Chunked) queryRegion(ctx context.Context, region tensor.Region, strategy Strategy, workers int) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	rep := &ReadReport{}
	var hits []globalHit
	for _, t := range c.sortedTiles() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		idx := c.tileIndexFromKey(t.key)
		if idx == nil {
			continue
		}
		localReg, ok := c.tileClip(region, idx)
		if !ok {
			continue
		}
		res, r, err := t.st.Query(ctx, QueryRequest{Region: &localReg, AsOf: AsOfLatest, Strategy: strategy, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		addReadReport(rep, r)
		hits = c.globalize(hits, res, idx)
	}
	return c.finishHits(hits, rep), rep, nil
}

// Kernel executes the additive push-down kernels across tiles: each
// tile computes its local answer and the partials sum, which is exact
// for the supported ops because tiles hold disjoint cells. SpMV and
// TTV are rejected — their operand indexing is global, and the paper's
// chunked remedy targets storage, not contraction.
func (c *Chunked) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	return runKernel(ctx, c.obsReg(), c.kind.String(), req, c.kernelAt)
}

// kernelAt runs the kernel on every tile and sums the partials into
// the global result, in tile order.
func (c *Chunked) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	dims := c.shape.Dims()
	size := uint64(1)
	switch req.Op {
	case KernelSumAll, KernelLiveNNZ:
	case KernelSumRegion:
		if req.Region == nil {
			return nil, fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, req.Op)
		}
		if req.Region.Dims() != dims {
			return nil, fmt.Errorf("store: %w: %d-dim region for %d-dim store", ErrShapeMismatch, req.Region.Dims(), dims)
		}
	case KernelNNZPerSlice:
		if req.Mode < 0 || req.Mode >= dims {
			return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, req.Mode, dims)
		}
		size = c.shape[req.Mode]
	default:
		return nil, fmt.Errorf("store: %w: kernel %v is not supported on chunked stores", ErrBadRequest, req.Op)
	}
	total := &KernelResult{Values: make([]float64, size), Report: &PushReport{}}
	for _, t := range c.sortedTiles() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := c.tileIndexFromKey(t.key)
		if idx == nil {
			continue
		}
		sub := KernelRequest{Op: req.Op, Mode: req.Mode, Workers: req.Workers}
		if req.Region != nil {
			localReg, ok := c.tileClip(*req.Region, idx)
			if !ok {
				continue
			}
			sub.Region = &localReg
		}
		r, err := t.st.Kernel(ctx, sub)
		if err != nil {
			return nil, err
		}
		var origin uint64 // where a per-slice partial lands in the global histogram
		if req.Op == KernelNNZPerSlice {
			origin = idx[req.Mode] * c.tile[req.Mode]
		}
		for i, v := range r.Values {
			total.Values[origin+uint64(i)] += v
		}
		addPushReport(total.Report, r.Report)
	}
	return total, nil
}
