package store

import (
	"context"
	"fmt"
	"time"

	"sparseart/internal/tensor"
)

// The chunked store's unified request surface. Probe targets partition
// by tile as writes do; region targets walk the materialized tiles the
// region overlaps (Grid.Walk) and run each tile-local sub-region
// through the tile store's Query — so scan and auto strategies work
// per tile, and a region read touches only the tiles it covers instead
// of materializing every global cell. Results merge (MergeRuns) into
// global row-major order, which equals linear-address order:
// byte-identical to the flat store's merge, and the order the router's
// scatter-gather reproduces across shard processes.

// Query answers one QueryRequest against the chunked store. A region
// must lie inside the global shape, as on a flat Store
// (ValidateRegion); anything else is ErrBadRequest. AsOf is rejected:
// fragment counts are per tile, so a global version number is not
// meaningful here.
func (c *Chunked) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.Validate(c.grid.shape); err != nil {
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

// merge combines the tiles' results into global row-major order — the
// order the flat store's linear-address merge produces — and charges
// the time to the report's Merge phase.
func (c *Chunked) merge(runs []Run, rep *ReadReport) *Result {
	t := time.Now()
	res := MergeRuns(c.grid.shape.Dims(), runs)
	rep.Merge += time.Since(t)
	rep.Found = res.Coords.Len()
	return res
}

// queryProbe partitions the probe by tile and reads each tile's slice
// in tile-local coordinates; points outside the global shape or in
// tiles never written are simply not found.
func (c *Chunked) queryProbe(ctx context.Context, probe *tensor.Coords, workers int) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	parts, keys, err := c.partitionByTile(probe, nil)
	if err != nil {
		return nil, nil, err
	}
	set := c.loadTiles()
	rep := &ReadReport{}
	runs := make([]Run, 0, len(keys))
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		g := parts[key]
		t := set.find(g.idx)
		if t == nil {
			continue
		}
		res, r, err := t.st.Query(ctx, QueryRequest{Probe: g.coords, AsOf: AsOfLatest, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		rep.Add(r)
		runs = append(runs, Run{Result: res, Origin: t.origin})
	}
	return c.merge(runs, rep), rep, nil
}

// queryRegion runs the region against every materialized tile it
// overlaps, as a tile-local sub-region query, and merges the global
// results in row-major order.
func (c *Chunked) queryRegion(ctx context.Context, region tensor.Region, strategy Strategy, workers int) (*Result, *ReadReport, error) {
	root, ctx := c.obsReg().StartCtx(ctx, obsChunkedRead)
	defer root.End()
	rep := &ReadReport{}
	var runs []Run
	err := c.eachTile(ctx, &region, func(t *tileRef, local *tensor.Region) error {
		res, r, err := t.st.Query(ctx, QueryRequest{Region: local, AsOf: AsOfLatest, Strategy: strategy, Workers: workers})
		if err != nil {
			return err
		}
		rep.Add(r)
		runs = append(runs, Run{Result: res, Origin: t.origin})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return c.merge(runs, rep), rep, nil
}

// Kernel executes the additive push-down kernels across tiles: each
// tile computes its local answer and the partials sum, which is exact
// for the supported ops because tiles hold disjoint cells. SpMV and
// TTV are rejected — their operand indexing is global, and the paper's
// chunked remedy targets storage, not contraction. A sum_region region
// must lie inside the global shape (ValidateRegion).
func (c *Chunked) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	return runKernel(ctx, c.obsReg(), c.kind.String(), req, c.kernelAt)
}

// kernelAt runs the kernel on every tile it covers and sums the
// partials into the global result, in row-major tile order.
func (c *Chunked) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	shape := c.grid.shape
	size := uint64(1)
	switch req.Op {
	case KernelSumAll, KernelLiveNNZ:
	case KernelSumRegion:
		if req.Region == nil {
			return nil, fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, req.Op)
		}
		if err := ValidateRegion(shape, *req.Region); err != nil {
			return nil, err
		}
	case KernelNNZPerSlice:
		if req.Mode < 0 || req.Mode >= shape.Dims() {
			return nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, req.Mode, shape.Dims())
		}
		size = shape[req.Mode]
	default:
		return nil, fmt.Errorf("store: %w: kernel %v is not supported on chunked stores", ErrBadRequest, req.Op)
	}
	total := &KernelResult{Values: make([]float64, size), Report: &PushReport{}}
	err := c.eachTile(ctx, req.Region, func(t *tileRef, local *tensor.Region) error {
		r, err := t.st.Kernel(ctx, KernelRequest{Op: req.Op, Region: local, Mode: req.Mode, Workers: req.Workers})
		if err != nil {
			return err
		}
		var origin uint64 // where a per-slice partial lands in the global histogram
		if req.Op == KernelNNZPerSlice {
			origin = t.origin[req.Mode]
		}
		for i, v := range r.Values {
			total.Values[origin+uint64(i)] += v
		}
		total.Report.Add(r.Report)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}
