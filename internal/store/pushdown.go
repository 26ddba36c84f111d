package store

import (
	"context"
	"errors"
	"fmt"

	"sparseart/internal/core"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// Compute push-down: kernels and maintenance passes that run WHERE the
// data lives instead of exporting it first. Every operation here
// acquires one MVCC read view, streams each data fragment's cached
// reader through the core streaming contract (core.Points /
// core.RegionPoints — lazy walks, no COO materialization), masks cells
// overwritten by newer fragments or covered by later tombstones, and
// feeds only the live cells to the consumer. Peak memory is O(largest
// fragment), never O(store): the only per-fragment state is a
// last-write-wins slot map that resolves duplicate points inside one
// fragment exactly the way mergeHits does.
//
// Liveness of a cell (p, slot) of data fragment fi is decided per
// fragment, which is what makes the fragments independently
// parallelizable: the cell is live iff
//
//  1. slot is the LAST occurrence of p in fi's payload order (the
//     winner mergeHits would keep for duplicate points in one write),
//  2. no later data fragment fj > fi stores p (newest fragment wins),
//  3. no tombstone with index > fi covers p.
//
// Every live cell is emitted exactly once across all fragments, so
// order-insensitive consumers (reductions, SpMV/TTV accumulation,
// chunked conversion) need no cross-fragment merge at all.

// PushReport summarizes one push-down execution.
type PushReport struct {
	// Fragments counts the data fragments actually iterated.
	Fragments int
	// Skipped counts fragments dismissed wholesale before any fetch —
	// bbox or coordinate-filter told us they cannot intersect the query.
	Skipped int
	// Cells counts live cells delivered to the consumer.
	Cells int64
	// Shadowed counts cells masked because a newer fragment (or a later
	// duplicate in the same fragment) rewrote the point.
	Shadowed int64
	// Dead counts cells masked by a later tombstone.
	Dead int64
	// Epoch is the manifest epoch the execution pinned.
	Epoch uint64
}

// Add sums o's counts into r; a nil o adds nothing. Epoch names one
// pinned version, so a sum keeps r's.
func (r *PushReport) Add(o *PushReport) {
	if o == nil {
		return
	}
	r.Fragments += o.Fragments
	r.Skipped += o.Skipped
	r.Cells += o.Cells
	r.Shadowed += o.Shadowed
	r.Dead += o.Dead
}

// errStopPush is the sentinel liveFragment returns when the consumer's
// visit callback stops the walk; it never escapes the package.
var errStopPush = errors.New("store: push-down stopped by consumer")

// shadowSet lists the fragments published after fi whose bounding box
// overlaps fi's — the only fragments that can mask fi's cells — split
// into later data fragments and later tombstones.
func shadowSet(v *readView, fi int) (datas []int, tombs []tombstoneRef) {
	fr := &v.frags[fi]
	for _, sj := range v.overlapping(fr.bbox, len(v.frags)) {
		if sj <= fi {
			continue
		}
		sf := &v.frags[sj]
		if sf.tomb {
			tombs = append(tombs, tombstoneRef{idx: sj, region: sf.tombRegion})
		} else {
			datas = append(datas, sj)
		}
	}
	return datas, tombs
}

// liveFragment streams the live cells of data fragment fi in payload
// order. region, when non-nil, restricts the walk: CSF descends only
// intersecting subtrees, GCSR++/GCSC++ seek to the region through
// their pointer vectors, and the other formats filter a full walk.
// *winner is the caller's last-write-wins scratch map: made here for
// the caller's first fragment, sized by it, then cleared and reused, so
// it holds only the walked cells. Shadow fragments are fetched lazily —
// a fragment whose bbox overlaps but whose points never collide costs
// at most filter probes. Returns errStopPush when visit stops the walk.
func (s *Store) liveFragment(v *readView, fi int, region *tensor.Region, winner *map[uint64]int,
	visit func(p []uint64, val float64) bool, st *PushReport) error {
	fr := v.frags[fi]
	e, err := s.fetchFragment(nil, fr, &ReadReport{})
	if err != nil {
		return err
	}
	seq, ok := streamReader(e.Reader, region)
	if !ok {
		return fmt.Errorf("store: %v reader cannot stream", s.curKind())
	}
	st.Fragments++

	// Pass 1: last write wins inside the fragment. mergeHits keeps the
	// final payload-order occurrence of a duplicated point; Lookup can
	// return an earlier slot, so the winner map — not Lookup — is what
	// keeps push-down and export byte-agreeing on degenerate inputs.
	if *winner == nil {
		*winner = make(map[uint64]int, e.Reader.NNZ())
	}
	win := *winner
	clear(win)
	for p, slot := range seq {
		win[s.lin.Linearize(p)] = slot
	}

	shadowDatas, shadowTombs := shadowSet(v, fi)
	shadowReaders := make(map[int]core.Reader, len(shadowDatas))

	seq2, _ := streamReader(e.Reader, region)
	for p, slot := range seq2 {
		if win[s.lin.Linearize(p)] != slot {
			st.Shadowed++
			continue
		}
		masked := false
		for _, sj := range shadowDatas {
			sf := &v.frags[sj]
			if !sf.bbox.Contains(p) {
				continue
			}
			if v.index != nil && sf.filter != nil && !sf.filter.MayContainPoint(p) {
				continue
			}
			sr, ok := shadowReaders[sj]
			if !ok {
				se, err := s.fetchFragment(nil, v.frags[sj], &ReadReport{})
				if err != nil {
					return err
				}
				sr = se.Reader
				shadowReaders[sj] = sr
			}
			if _, ok := sr.Lookup(p); ok {
				masked = true
				break
			}
		}
		if masked {
			st.Shadowed++
			continue
		}
		for _, tb := range shadowTombs {
			if tb.region.Contains(p) {
				masked = true
				break
			}
		}
		if masked {
			st.Dead++
			continue
		}
		st.Cells++
		if !visit(p, e.Values[slot]) {
			return errStopPush
		}
	}
	return nil
}

// streamReader picks the walk: region-restricted when a region is
// given, full otherwise.
func streamReader(r core.Reader, region *tensor.Region) (core.PointSeq, bool) {
	if region != nil {
		return core.RegionPoints(r, *region)
	}
	return core.Points(r)
}

// ScanLive streams every live cell of the store (or of a region, when
// non-nil) to visit, fragment by fragment in manifest order, each
// fragment in payload order. The walk is serial and deterministic —
// Convert builds its chunks on it — and holds O(largest fragment)
// memory. Returning false from visit stops the walk early (the report
// then covers the visited prefix).
func (s *Store) ScanLive(region *tensor.Region, visit func(p []uint64, val float64) bool) (*PushReport, error) {
	return s.ScanLiveContext(context.Background(), region, visit)
}

// ScanLiveContext is ScanLive under a context: cancellation is checked
// before each fragment's walk, so a server deadline stops the scan at
// a fragment boundary.
func (s *Store) ScanLiveContext(ctx context.Context, region *tensor.Region, visit func(p []uint64, val float64) bool) (*PushReport, error) {
	// A budget of one keeps the walk in manifest order, which Convert's
	// output bytes depend on.
	_, rep, err := runPush(ctx, s, region, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, p []uint64, val float64) bool { return visit(p, val) })
	if err != nil && err != errStopPush {
		return nil, err
	}
	s.pushCounters("scan", rep)
	return rep, nil
}

// pushCounters publishes a push-down execution's totals.
func (s *Store) pushCounters(op string, rep *PushReport) {
	reg := s.obsReg()
	kind := s.curKind().String()
	reg.Counter("store.pushdown.count", "kind", kind, "op", op).Inc()
	reg.Counter("store.pushdown.fragments", "kind", kind, "op", op).Add(int64(rep.Fragments))
	reg.Counter("store.pushdown.skipped", "kind", kind, "op", op).Add(int64(rep.Skipped))
	reg.Counter("store.pushdown.cells", "kind", kind, "op", op).Add(rep.Cells)
	reg.Counter("store.pushdown.shadowed", "kind", kind, "op", op).Add(rep.Shadowed)
	reg.Counter("store.pushdown.dead", "kind", kind, "op", op).Add(rep.Dead)
}

// pushRun runs one kernel through the executor under a psort worker
// budget (< 1: every core): each worker folds its fragments' live cells
// into a private accumulator, and the partials merge when the run
// drains. Merge order is nondeterministic, so float results can differ
// in rounding from a serial pass — exactly like any parallel
// reduction; integer-valued data is exact.
func pushRun[A any](ctx context.Context, s *Store, op string, workers int, region *tensor.Region,
	newAcc func() A, visit func(acc A, p []uint64, val float64), merge func(dst, src A)) (A, *PushReport, error) {
	accs, rep, err := runPush(ctx, s, region, psort.Workers(workers), newAcc,
		func(acc A, p []uint64, val float64) bool {
			visit(acc, p, val)
			return true
		})
	if err != nil {
		var zero A
		return zero, nil, err
	}
	for _, a := range accs[1:] {
		merge(accs[0], a)
	}
	s.pushCounters(op, rep)
	return accs[0], rep, nil
}

// SpMV computes y = A·x over the stored 2D tensor without exporting it:
// each fragment's live cells accumulate y[i] += A[i,j]·x[j] into a
// per-worker partial, merged by vector addition. x must have length
// Shape[1]; y has length Shape[0]. workers < 1 means all cores.
func (s *Store) SpMV(x []float64, workers int) ([]float64, *PushReport, error) {
	return s.SpMVContext(context.Background(), x, workers)
}

// SpMVContext is SpMV under a context; cancellation stops fragment
// work at the next fragment boundary.
func (s *Store) SpMVContext(ctx context.Context, x []float64, workers int) ([]float64, *PushReport, error) {
	if s.shape.Dims() != 2 {
		return nil, nil, fmt.Errorf("store: %w: SpMV needs a 2-dim store, got %d dims", ErrBadRequest, s.shape.Dims())
	}
	if uint64(len(x)) != s.shape[1] {
		return nil, nil, fmt.Errorf("store: %w: x has %d entries for %d columns", ErrShapeMismatch, len(x), s.shape[1])
	}
	rows := int(s.shape[0])
	return pushRun(ctx, s, "spmv", workers, nil,
		func() []float64 { return make([]float64, rows) },
		func(y []float64, p []uint64, val float64) { y[p[0]] += val * x[p[1]] },
		addVec[float64])
}

// addVec merges one worker's dense partial into another.
func addVec[T int64 | float64](dst, src []T) {
	for i, v := range src {
		dst[i] += v
	}
}

// TTV contracts the stored tensor with a vector along one mode,
// Y[i_0,…,î_mode,…] = Σ_k T[…,k,…]·v[k], returning the dense result in
// row-major order over the remaining modes together with its shape —
// the in-store counterpart of linalg.Tensor.TTV.
func (s *Store) TTV(mode int, vec []float64, workers int) ([]float64, tensor.Shape, *PushReport, error) {
	return s.TTVContext(context.Background(), mode, vec, workers)
}

// TTVContext is TTV under a context; cancellation stops fragment work
// at the next fragment boundary.
func (s *Store) TTVContext(ctx context.Context, mode int, vec []float64, workers int) ([]float64, tensor.Shape, *PushReport, error) {
	d := s.shape.Dims()
	if mode < 0 || mode >= d {
		return nil, nil, nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, d)
	}
	if uint64(len(vec)) != s.shape[mode] {
		return nil, nil, nil, fmt.Errorf("store: %w: vector has %d entries for extent %d", ErrShapeMismatch, len(vec), s.shape[mode])
	}
	outShape := make(tensor.Shape, 0, d-1)
	for i, m := range s.shape {
		if i != mode {
			outShape = append(outShape, m)
		}
	}
	if len(outShape) == 0 {
		outShape = tensor.Shape{1}
	}
	lin, err := tensor.NewLinearizer(outShape, tensor.RowMajor)
	if err != nil {
		return nil, nil, nil, err
	}
	vol, _ := outShape.Volume()
	// Each worker's accumulator carries its own coordinate scratch so
	// the hot loop allocates nothing and shares nothing.
	type ttvAcc struct {
		out []float64
		q   []uint64
	}
	acc, rep, err := pushRun(ctx, s, "ttv", workers, nil,
		func() *ttvAcc { return &ttvAcc{out: make([]float64, vol), q: make([]uint64, len(outShape))} },
		func(a *ttvAcc, p []uint64, val float64) {
			if d == 1 {
				a.out[0] += val * vec[p[0]]
				return
			}
			k := 0
			for i, c := range p {
				if i == mode {
					continue
				}
				a.q[k] = c
				k++
			}
			a.out[lin.Linearize(a.q)] += val * vec[p[mode]]
		},
		func(dst, src *ttvAcc) { addVec(dst.out, src.out) })
	if err != nil {
		return nil, nil, nil, err
	}
	return acc.out, outShape, rep, nil
}

// SumAll reduces the store to the sum of every live value.
func (s *Store) SumAll(workers int) (float64, *PushReport, error) {
	return s.SumAllContext(context.Background(), workers)
}

// SumAllContext is SumAll under a context; cancellation stops fragment
// work at the next fragment boundary.
func (s *Store) SumAllContext(ctx context.Context, workers int) (float64, *PushReport, error) {
	return s.sum(ctx, "sum", nil, workers)
}

// sum reduces the live values over region (the whole store when nil).
func (s *Store) sum(ctx context.Context, op string, region *tensor.Region, workers int) (float64, *PushReport, error) {
	sum, rep, err := pushRun(ctx, s, op, workers, region,
		func() *float64 { return new(float64) },
		func(acc *float64, _ []uint64, val float64) { *acc += val },
		func(dst, src *float64) { *dst += *src })
	if err != nil {
		return 0, nil, err
	}
	return *sum, rep, nil
}

// SumRegion reduces a rectangular region to the sum of its live values,
// exploiting the region-restricted walk: CSF fragments descend only
// intersecting subtrees, GCSR++/GCSC++ fragments seek within their
// slices, and non-overlapping fragments are skipped by the spatial
// index and coordinate filters before any fetch.
func (s *Store) SumRegion(region tensor.Region, workers int) (float64, *PushReport, error) {
	return s.SumRegionContext(context.Background(), region, workers)
}

// SumRegionContext is SumRegion under a context; cancellation stops
// fragment work at the next fragment boundary.
func (s *Store) SumRegionContext(ctx context.Context, region tensor.Region, workers int) (float64, *PushReport, error) {
	if err := ValidateRegion(s.shape, region); err != nil {
		return 0, nil, err
	}
	return s.sum(ctx, "sum_region", &region, workers)
}

// LiveNNZ counts the store's live cells — the number ExportAll would
// materialize — without materializing anything.
func (s *Store) LiveNNZ(workers int) (int64, *PushReport, error) {
	return s.LiveNNZContext(context.Background(), workers)
}

// LiveNNZContext is LiveNNZ under a context; cancellation stops
// fragment work at the next fragment boundary.
func (s *Store) LiveNNZContext(ctx context.Context, workers int) (int64, *PushReport, error) {
	n, rep, err := pushRun(ctx, s, "nnz", workers, nil,
		func() *int64 { return new(int64) },
		func(acc *int64, _ []uint64, _ float64) { *acc++ },
		func(dst, src *int64) { *dst += *src })
	if err != nil {
		return 0, nil, err
	}
	return *n, rep, nil
}

// NNZPerSlice counts live cells per index of one mode: out[k] is the
// number of live cells with coordinate k along that mode — the slice
// histogram load balancers and format advisors want.
func (s *Store) NNZPerSlice(mode int, workers int) ([]int64, *PushReport, error) {
	return s.NNZPerSliceContext(context.Background(), mode, workers)
}

// NNZPerSliceContext is NNZPerSlice under a context; cancellation
// stops fragment work at the next fragment boundary.
func (s *Store) NNZPerSliceContext(ctx context.Context, mode int, workers int) ([]int64, *PushReport, error) {
	if mode < 0 || mode >= s.shape.Dims() {
		return nil, nil, fmt.Errorf("store: %w: mode %d of %d-dim store", ErrBadRequest, mode, s.shape.Dims())
	}
	ext := int(s.shape[mode])
	return pushRun(ctx, s, "nnz_slice", workers, nil,
		func() []int64 { return make([]int64, ext) },
		func(acc []int64, p []uint64, _ float64) { acc[p[mode]]++ },
		addVec[int64])
}
