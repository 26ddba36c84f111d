package store

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sparseart/internal/complexity"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/psort"
	"sparseart/internal/tensor"
)

// This file is the store's one per-fragment executor. Algorithm 3's
// READ has a single shape — find the overlapping fragments, visit each,
// combine — and every Query strategy, every push-down kernel, ScanLive
// and ExportAll run through it. It has three parts:
//
//   - a plan (readView.plan): the fragments whose bounding box overlaps
//     the target, minus empty ones (tombstones join at the merge),
//     minus those the coordinate filters prove disjoint. Per fragment,
//     the read sink then probes or scans; under StrategyAuto,
//     preferScan makes the Table I choice.
//   - a worker budget (runFragments): 1 visits the planned fragments
//     inline, in manifest order; n > 1 runs them on one bounded pool.
//   - a sink: readSink collects each worker's hits for mergeHits;
//     pushSink folds live cells (liveFragment) into one accumulator per
//     worker.
//
// Strategy and Workers are therefore independent axes: any strategy
// runs under any budget, with results byte-identical to serial.

// fragPlan is the candidate-and-filter step every read shares: the
// fragments to visit in manifest order, the tombstones overlapping the
// target (the set the hit merge applies; push-down masks per fragment
// instead), the overlap candidates counted with tombstones, and the
// candidates the coordinate filters dismissed.
type fragPlan struct {
	data    []int
	tombs   []tombstoneRef
	cands   int
	skipped int
}

// plan lists the fragments among the first limit that a request over
// a probe list or a region must visit. With neither, it lists every
// data fragment and consults no index. The filters have no false
// negatives, so the plan visits the same data with the index knob on
// or off; only the number of fragments fetched differs.
func (v *readView) plan(probe *tensor.Coords, region *tensor.Region, limit int) fragPlan {
	var cands []int
	switch {
	case probe != nil:
		box, ok := probe.Bounds()
		if !ok {
			return fragPlan{}
		}
		cands = v.overlapping(box, limit)
	case region != nil:
		cands = v.overlapping(region.BBox(), limit)
	default:
		var p fragPlan
		for i := range v.frags[:limit] {
			if v.frags[i].nnz > 0 {
				p.data = append(p.data, i)
			}
		}
		return p
	}
	p := fragPlan{tombs: v.overlapTombs(cands), cands: len(cands)}
	// The tombstones are extracted, so the candidates can be compacted
	// in place.
	p.data = cands[:0]
	for _, fi := range cands {
		fr := &v.frags[fi]
		if fr.nnz == 0 {
			continue
		}
		if v.index != nil && fr.filter != nil {
			if probe != nil && !filterMayContainProbe(fr.filter, fr.bbox, probe) ||
				region != nil && !fr.filter.MayOverlapRegion(*region) {
				p.skipped++
				continue
			}
		}
		p.data = append(p.data, fi)
	}
	return p
}

// fragSink consumes one planned fragment on behalf of worker w. Each
// worker owns its own slot in the sink, so fragment needs no locking.
type fragSink interface {
	fragment(w, fi int) error
}

// workerBudget clamps a pool size to the planned fragment count, so no
// worker starts idle. The result is at least 1.
func workerBudget(workers, frags int) int {
	return max(1, min(workers, frags))
}

// runFragments visits the planned fragments with sink. A budget of 1
// visits them inline, in order, with no goroutine, channel or mutex.
// A larger budget runs one pool of that many workers pulling fragments
// in order. Either way the context is checked before each fragment and
// the first error wins: once one is recorded, no fragment starts.
func runFragments(ctx context.Context, frags []int, workers int, sink fragSink) error {
	if workers <= 1 {
		for _, fi := range frags {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := sink.fragment(0, fi); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if first == nil {
					first = ctx.Err()
				}
				if first != nil || next == len(frags) {
					mu.Unlock()
					return
				}
				fi := frags[next]
				next++
				mu.Unlock()
				if err := sink.fragment(w, fi); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// readSink collects a query's hits, one part per worker. Each part
// holds every hit of the fragments its worker visited, in visit order,
// so concatenating the parts keeps each fragment's hits contiguous and
// in order — all mergeHits needs to produce the serial result.
type readSink struct {
	s    *Store
	v    *readView
	root *obs.Span
	// probe lists the cells probing visits: the probe target, or the
	// region's cells. nil when no fragment probes.
	probe *tensor.Coords
	// region is the scan target (StrategyScan, StrategyAuto); nil
	// scans whole fragments.
	region   *tensor.Region
	strategy Strategy
	parts    []readPart
	one      [1]readPart // the serial budget's part, without a slice allocation
	rep      ReadReport
}

// readPart is one worker's share of a query.
type readPart struct {
	hits []hit
	rep  ReadReport
}

// scans is the plan's probe-or-scan choice for one fragment.
func (q *readSink) scans(fr *fragRef) bool {
	switch q.strategy {
	case StrategyScan:
		return true
	case StrategyAuto:
		vol, _ := q.region.Volume() // Query checked the region against the shape
		return preferScan(q.s.curKind(), q.s.shape, fr.nnz, vol)
	}
	return false
}

func (q *readSink) fragment(w, fi int) error {
	part := &q.parts[w]
	fr := &q.v.frags[fi]
	part.rep.Fragments++
	e, err := q.s.fetchFragment(q.root, *fr, &part.rep)
	if err != nil {
		return err
	}
	sp := q.root.Child(obsReadProbe)
	t := time.Now()
	if q.scans(fr) {
		err = scanFragment(q.s.curKind(), e.Reader, q.region, func(p []uint64, slot int) bool {
			part.rep.Probed++
			part.hits = append(part.hits, hit{addr: q.s.lin.Linearize(p), frag: fi, val: e.Values[slot]})
			return true
		})
		part.rep.Scans++
	} else {
		for i, n := 0, q.probe.Len(); i < n; i++ {
			p := q.probe.At(i)
			if !fr.bbox.Contains(p) {
				continue
			}
			part.rep.Probed++
			if slot, ok := e.Reader.Lookup(p); ok {
				part.hits = append(part.hits, hit{addr: q.s.lin.Linearize(p), frag: fi, val: e.Values[slot]})
			}
		}
	}
	sp.End()
	part.rep.Probe += time.Since(t)
	if err != nil {
		q.s.obsReg().Counter("store.read.errors", "kind", q.s.curKind().String()).Inc()
	}
	return err
}

// queryAt runs a validated query on a fresh view. Workers 0 means
// serial; psort resolves the rest (negative: every core).
//
// Report semantics under a budget above 1: the phase durations are
// summed across workers, so they measure aggregate work, not elapsed
// time, and on a cost-modeled backend the modeled I/O of concurrent
// loads lands in whichever worker drained it — totals are preserved,
// per-fragment attribution is not. Workers share the reader cache,
// which coalesces concurrent misses on one fragment into one load.
func (s *Store) queryAt(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	v := s.acquireView()
	defer v.release()
	limit := len(v.frags)
	if req.AsOf != AsOfLatest {
		if req.AsOf > int64(limit) {
			return nil, nil, fmt.Errorf("store: %w: version %d outside [0, %d]", ErrBadRequest, req.AsOf, limit)
		}
		limit = int(req.AsOf)
	}
	workers := 1
	if req.Workers != 0 {
		workers = psort.Workers(req.Workers)
	}
	q := &readSink{s: s, v: v, strategy: req.Strategy, rep: ReadReport{Epoch: v.epoch}}
	s.takeCost()
	reg := s.obsReg()
	kind := s.curKind().String()
	root, _ := reg.StartCtx(ctx, obsRead)
	defer root.End()
	q.root = root

	var p fragPlan
	var err error
	if req.Strategy == StrategyDefault {
		q.probe = req.Probe
		if req.Region != nil {
			if q.probe, err = regionProbe(*req.Region); err != nil {
				return nil, nil, err
			}
		}
		p = v.plan(q.probe, nil, limit)
	} else {
		q.region = req.Region
		p = v.plan(nil, q.region, limit)
		for _, fi := range p.data {
			if !q.scans(&v.frags[fi]) {
				if q.probe, err = regionProbe(*req.Region); err != nil {
					return nil, nil, err
				}
				break
			}
		}
	}
	q.parts = q.one[:]
	if n := workerBudget(workers, len(p.data)); n > 1 {
		q.parts = make([]readPart, n)
	}
	if err := runFragments(ctx, p.data, len(q.parts), q); err != nil {
		return nil, nil, err
	}

	rep := &q.rep
	hits := q.parts[0].hits
	for i := range q.parts {
		if i > 0 {
			hits = append(hits, q.parts[i].hits...)
		}
		rep.Add(&q.parts[i].rep)
	}
	if len(q.parts) > 1 {
		// Concurrent loads can leave modeled cost no worker drained.
		if cost, ok := s.takeCost(); ok {
			rep.IO += cost.Total()
		}
	}
	rep.Candidates = p.cands
	rep.FilterSkipped = p.skipped
	if p.skipped > 0 {
		reg.Counter("store.filter.skipped", "kind", kind).Add(int64(p.skipped))
	}
	sp := root.Child(obsReadMerge)
	res, mergeDur := mergeHits(s, hits, p.tombs)
	sp.End()
	rep.Merge = mergeDur
	rep.Found = res.Coords.Len()
	reg.Counter("store.read.count", "kind", kind).Inc()
	reg.Counter("store.read.fragments", "kind", kind).Add(int64(rep.Fragments))
	if req.Strategy != StrategyDefault {
		reg.Counter("store.read.scans", "kind", kind).Add(int64(rep.Scans))
	}
	reg.Counter("store.read.probed", "kind", kind).Add(int64(rep.Probed))
	reg.Counter("store.read.found", "kind", kind).Add(int64(rep.Found))
	return res, rep, nil
}

// maxProbeBytes bounds the probe list a region read may expand to when
// it probes cell by cell: 1 GiB, the value of wire.MaxFrame, so no
// region probes more cells than a client could send as a probe target.
const maxProbeBytes = 1 << 30

// regionProbe expands a region into the probe list probing visits, or
// rejects it with ErrBadRequest when the list (cells × dims × 8 bytes)
// would exceed maxProbeBytes. Scanning has no such bound.
func regionProbe(region tensor.Region) (*tensor.Coords, error) {
	cells, ok := region.Volume()
	if !ok || cells > maxProbeBytes/uint64(8*region.Dims()) {
		return nil, fmt.Errorf("store: %w: region of size %v is too large to probe cell by cell; read it with StrategyScan or StrategyAuto",
			ErrBadRequest, region.Size)
	}
	return region.Coords(), nil
}

// pushSink folds the live cells of each visited fragment into its
// worker's accumulator. Each worker also owns the last-write-wins map
// liveFragment fills per fragment.
type pushSink[A any] struct {
	s       *Store
	v       *readView
	region  *tensor.Region
	visit   func(acc A, p []uint64, val float64) bool
	accs    []A
	stats   []PushReport
	winners []map[uint64]int
}

func (k *pushSink[A]) fragment(w, fi int) error {
	acc := k.accs[w]
	return k.s.liveFragment(k.v, fi, k.region, &k.winners[w], func(p []uint64, val float64) bool {
		return k.visit(acc, p, val)
	}, &k.stats[w])
}

// runPush is the push-down side of the executor: it pins a view, plans
// the data fragments that overlap region (all of them when region is
// nil) and folds their live cells into one accumulator per worker. It
// returns the accumulators and the summed report, the report also on
// error, so a walk the consumer stopped (errStopPush) reports the
// visited prefix.
func runPush[A any](ctx context.Context, s *Store, region *tensor.Region, workers int,
	newAcc func() A, visit func(acc A, p []uint64, val float64) bool) ([]A, *PushReport, error) {
	v := s.acquireView()
	defer v.release()
	p := v.plan(nil, region, len(v.frags))
	n := workerBudget(workers, len(p.data))
	k := &pushSink[A]{s: s, v: v, region: region, visit: visit,
		accs: make([]A, n), stats: make([]PushReport, n), winners: make([]map[uint64]int, n)}
	for i := range k.accs {
		k.accs[i] = newAcc()
	}
	err := runFragments(ctx, p.data, n, k)
	rep := &PushReport{Epoch: v.epoch, Skipped: p.skipped}
	for i := range k.stats {
		rep.Add(&k.stats[i])
	}
	return k.accs, rep, err
}

// scanFragment visits one fragment's stored points inside region, or
// all of them when region is nil. Organizations with a
// core.RegionScanner prune the walk (CSF through its tree, GCSR++ and
// GCSC++ by seeking within their slices); the others filter a full
// walk.
func scanFragment(kind core.Kind, reader core.Reader, region *tensor.Region,
	visit func(p []uint64, slot int) bool) error {
	if rs, ok := reader.(core.RegionScanner); ok && region != nil {
		rs.ScanRegion(*region, visit)
		return nil
	}
	it, ok := reader.(core.Iterator)
	if !ok {
		return fmt.Errorf("store: %v reader cannot scan", kind)
	}
	if region == nil {
		it.Each(visit)
		return nil
	}
	it.Each(func(p []uint64, slot int) bool {
		if region.Contains(p) {
			return visit(p, slot)
		}
		return true
	})
	return nil
}

// preferScan applies Table I: compare the model's marginal probe cost
// for nRead queries against the O(n) scan pass over one fragment of n
// points. Probing wins when the region is small relative to the
// fragment; scanning wins for the scan-read organizations (COO,
// LINEAR) on any sizable window. The marginal cost is taken as the
// slope of the model's read formula (its n_read-independent terms,
// like GCS's one-off transform pass, belong to both strategies).
//
// The decision is deliberately the *worst-case* Table I slope: GCS row
// probes usually early-exit well before n/min{m} comparisons, so the
// model errs toward scanning for mid-sized windows. That conservatism
// is cheap — a scan is never catastrophic, while quadratic probing of a
// large window is.
func preferScan(kind core.Kind, shape tensor.Shape, n, nRead uint64) bool {
	params := complexity.Params{
		N:        float64(max(n, 1)),
		NRead:    float64(max(nRead, 1)),
		Shape:    shape,
		CSFShare: 0.5,
	}
	e1, err := complexity.For(kind, params)
	if err != nil {
		return false // unknown organization: keep the paper's strategy
	}
	params.NRead *= 2
	e2, err := complexity.For(kind, params)
	if err != nil {
		return false
	}
	probeCost := e2.Read - e1.Read // slope × nRead
	return probeCost > float64(n)
}
