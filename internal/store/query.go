package store

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// This file is the store's unified request surface. The six historical
// read entry points (Read, ReadAsOf, ReadRegion, ReadRegionScan,
// ReadRegionAuto, ReadParallel) differ only in which target they take
// (probe list or region), which strategy executes it (probe every
// cell, scan fragments, or the Table I cost model), how many workers
// probe fragments, and which version bound applies. Query collapses
// those axes into one serializable QueryRequest — the exact struct the
// wire protocol (internal/wire) carries — and threads a
// context.Context through the per-fragment executor (exec.go) so a
// server-side deadline stops in-store work instead of letting it run
// to completion. The legacy methods remain as thin wrappers.

// Typed request errors. They satisfy errors.Is through fmt.Errorf
// wrapping and survive the wire protocol losslessly: internal/wire
// assigns each a stable code and reconstructs an error for which
// errors.Is(err, sentinel) still holds on the client side.
var (
	// ErrBadRequest marks a request that is malformed independent of
	// the store's state: no target (or two), an unknown strategy, a
	// version outside the fragment history, an unsupported
	// combination.
	ErrBadRequest = errors.New("bad request")

	// ErrShapeMismatch marks a request whose coordinates do not match
	// the store's dimensionality.
	ErrShapeMismatch = errors.New("shape mismatch")
)

// Strategy selects how a region query executes. Probe-every-cell is
// the paper's benchmark form; scan enumerates each fragment's stored
// points; auto applies the Table I cost model per fragment.
type Strategy uint8

const (
	// StrategyDefault probes every region cell (or the given probe
	// list) with the organization's point-read algorithm.
	StrategyDefault Strategy = iota
	// StrategyScan enumerates each overlapping fragment's stored
	// points and filters by region containment (region targets only).
	StrategyScan
	// StrategyAuto chooses probe or scan per fragment by the Table I
	// complexity model (region targets only).
	StrategyAuto
	strategyEnd // sentinel for validation; keep last
)

// String names the strategy for logs and metric labels.
func (st Strategy) String() string {
	switch st {
	case StrategyDefault:
		return "probe"
	case StrategyScan:
		return "scan"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(st))
	}
}

// AsOfLatest asks a query to answer against the store's current
// version (every committed fragment).
const AsOfLatest = -1

// QueryRequest describes one read. Exactly one of Probe or Region must
// be set. The zero value of the remaining fields means "latest
// version, default strategy, serial execution" — note AsOf zero is the
// empty store, so callers wanting the current state must set
// AsOfLatest (the legacy wrappers and the wire decoder do).
type QueryRequest struct {
	// Probe lists exact points to look up.
	Probe *tensor.Coords
	// Region is a rectangular window to read.
	Region *tensor.Region
	// AsOf answers against the store's state after its first AsOf
	// fragments (0 = empty store, Fragments() = everything);
	// AsOfLatest follows the live head. Probe targets only.
	AsOf int64
	// Strategy picks the region execution mode; see Strategy.
	Strategy Strategy
	// Workers bounds the per-fragment worker pool under any strategy:
	// 0 or 1 visits fragments serially, n > 1 uses n workers, negative
	// uses every core.
	Workers int
}

// Validate rejects a request that is malformed for a store of the given
// shape before any view is pinned: no target or two, an unknown
// strategy, a strategy or version the target cannot take, probe
// coordinates without the store's dims, or a region breaking the
// region contract (ValidateRegion). Store, Chunked and serve.Router all
// check requests with it.
func (req *QueryRequest) Validate(shape tensor.Shape) error {
	if (req.Probe == nil) == (req.Region == nil) {
		return fmt.Errorf("store: %w: exactly one of Probe or Region must be set", ErrBadRequest)
	}
	if req.Strategy >= strategyEnd {
		return fmt.Errorf("store: %w: unknown strategy %d", ErrBadRequest, req.Strategy)
	}
	if req.Probe != nil && req.Strategy != StrategyDefault {
		return fmt.Errorf("store: %w: strategy %v needs a region target", ErrBadRequest, req.Strategy)
	}
	if req.AsOf < AsOfLatest {
		return fmt.Errorf("store: %w: as-of version %d", ErrBadRequest, req.AsOf)
	}
	if req.Region != nil && req.AsOf != AsOfLatest {
		return fmt.Errorf("store: %w: as-of reads take a probe target", ErrBadRequest)
	}
	if req.Probe != nil && req.Probe.Dims() != shape.Dims() {
		return fmt.Errorf("store: %w: %d-dim probe for %d-dim store", ErrShapeMismatch, req.Probe.Dims(), shape.Dims())
	}
	if req.Region != nil {
		return ValidateRegion(shape, *req.Region)
	}
	return nil
}

// Query answers one QueryRequest against a pinned MVCC view. It is the
// single entry point the legacy Read* methods, the facade, and the
// wire protocol all route through. Cancellation is checked once per
// fragment: a canceled ctx stops before the next fetch/probe/scan and
// returns ctx.Err().
func (s *Store) Query(ctx context.Context, req QueryRequest) (*Result, *ReadReport, error) {
	if err := req.Validate(s.shape); err != nil {
		return nil, nil, err
	}
	reg := s.obsReg()
	sp, ctx := reg.StartCtx(ctx, obsQuery)
	if sp.Sampled() {
		sp.SetAttrStr("strategy", req.Strategy.String())
	}
	res, rep, err := s.queryAt(ctx, req)
	FinishRequestSpan(reg, ctx, sp, obsQuery, s.curKind().String(), ReadCost(rep), err)
	return res, rep, err
}

// Read implements Algorithm 3's READ for an arbitrary probe list: find
// overlapping fragments, probe each, merge sorted by linear address.
// When several fragments contain the same cell the most recent
// fragment wins; cells covered by a later tombstone are dead.
//
// Deprecated: Read is a thin wrapper; use Query with a Probe target.
func (s *Store) Read(probe *tensor.Coords) (*Result, *ReadReport, error) {
	return s.Query(context.Background(), QueryRequest{Probe: probe, AsOf: AsOfLatest})
}

// ReadAsOf answers the probe against the store's state after its first
// version fragments — time travel over the immutable fragment history.
// version ranges from 0 (empty store) to Fragments().
//
// Deprecated: ReadAsOf is a thin wrapper; use Query with AsOf set.
func (s *Store) ReadAsOf(probe *tensor.Coords, version int) (*Result, *ReadReport, error) {
	if version < 0 {
		// QueryRequest reserves -1 for "latest"; the legacy method
		// treated every negative version as out of range.
		return nil, nil, fmt.Errorf("store: %w: version %d outside [0, %d]", ErrBadRequest, version, s.Fragments())
	}
	return s.Query(context.Background(), QueryRequest{Probe: probe, AsOf: int64(version)})
}

// ReadRegion reads a rectangular region by probing every cell, the form
// of the paper's read benchmark (start (m/2,…), size (m/10,…)).
//
// Deprecated: ReadRegion is a thin wrapper; use Query with a Region
// target.
func (s *Store) ReadRegion(region tensor.Region) (*Result, *ReadReport, error) {
	return s.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
}

// ReadRegionScan reads a rectangular region in scan mode: instead of
// probing every cell with the organization's point-read algorithm (the
// paper's benchmark, O(n_read) probes of O(n) each for COO/LINEAR),
// each overlapping fragment enumerates its stored points and filters by
// containment — O(n) per fragment regardless of region volume. This is
// the trade-off flip side of §II-A: scans favor large windows, probes
// favor small ones. CSF prunes the walk through its tree and GCSR++/
// GCSC++ seek within their slices (core.RegionScanner); the other
// organizations fall back to a full iteration.
//
// Deprecated: ReadRegionScan is a thin wrapper; use Query with
// StrategyScan.
func (s *Store) ReadRegionScan(region tensor.Region) (*Result, *ReadReport, error) {
	return s.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: StrategyScan})
}

// ReadRegionAuto reads a rectangular region, choosing probe or scan
// mode per fragment by the Table I cost model. Results are identical to
// ReadRegion and ReadRegionScan; only the time to produce them differs.
// The report's Scans field tells how many fragments were scanned.
//
// Deprecated: ReadRegionAuto is a thin wrapper; use Query with
// StrategyAuto.
func (s *Store) ReadRegionAuto(region tensor.Region) (*Result, *ReadReport, error) {
	return s.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: StrategyAuto})
}

// ReadParallel answers a probe list like Read but processes the
// overlapping fragments in a bounded worker pool — the multi-fragment
// analogue of parallel I/O on an HPC node. Results are identical to
// Read; only wall-clock time differs (on real file systems).
//
// Deprecated: ReadParallel is a thin wrapper; use Query with Workers
// set.
func (s *Store) ReadParallel(probe *tensor.Coords, workers int) (*Result, *ReadReport, error) {
	if workers < 1 {
		workers = -1 // legacy semantics: "not specified" meant every core
	}
	return s.Query(context.Background(), QueryRequest{Probe: probe, AsOf: AsOfLatest, Workers: workers})
}

// ReadCost flattens a read report into the cost map shared by span
// attributes and slow-query-log entries. It returns a constructor, not
// a map, so the untraced fast path allocates nothing.
func ReadCost(rep *ReadReport) func() map[string]int64 {
	if rep == nil {
		return nil
	}
	return func() map[string]int64 {
		return map[string]int64{
			"candidates":     int64(rep.Candidates),
			"filter_skipped": int64(rep.FilterSkipped),
			"fragments":      int64(rep.Fragments),
			"probes":         int64(rep.Probed),
			"scans":          int64(rep.Scans),
			"found":          int64(rep.Found),
			"cache_hits":     int64(rep.CacheHits),
			"cache_misses":   int64(rep.CacheMisses),
			"bytes_read":     rep.BytesRead,
			"io_ns":          int64(rep.IO),
			"extract_ns":     int64(rep.Extract),
			"probe_ns":       int64(rep.Probe),
			"merge_ns":       int64(rep.Merge),
			"epoch":          int64(rep.Epoch),
		}
	}
}

// PushCost flattens a push-down kernel report the same way.
func PushCost(rep *PushReport) func() map[string]int64 {
	if rep == nil {
		return nil
	}
	return func() map[string]int64 {
		return map[string]int64{
			"fragments":      int64(rep.Fragments),
			"filter_skipped": int64(rep.Skipped),
			"cells":          int64(rep.Cells),
			"shadowed":       int64(rep.Shadowed),
			"dead":           int64(rep.Dead),
		}
	}
}

// FinishRequestSpan closes a request span with the per-query cost
// attribution attached and feeds the slow-query log. cost may be nil
// (failed requests have no report); it is only invoked when the span is
// sampled or the slowlog triggers, so the common path stays
// allocation-free.
func FinishRequestSpan(reg *obs.Registry, ctx context.Context, sp *obs.Span, op, kind string, cost func() map[string]int64, err error) {
	var deadlineNs int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineNs = int64(time.Until(dl))
	}
	if sp.Sampled() {
		sp.SetAttrStr("kind", kind)
		if cost != nil {
			for k, v := range cost() {
				sp.SetAttr(k, v)
			}
		}
		if deadlineNs != 0 {
			sp.SetAttr("deadline_remaining_ns", deadlineNs)
		}
		if err != nil {
			sp.SetAttrStr("err", err.Error())
		}
	}
	d := sp.End()
	if sl := reg.SlowLog(); sl.Triggered(d) {
		e := obs.SlowEntry{
			Proc:       reg.Proc(),
			Op:         op,
			Kind:       kind,
			DurNs:      int64(d),
			DeadlineNs: deadlineNs,
		}
		if tc, ok := obs.TraceFrom(ctx); ok {
			e.TraceID = tc.TraceID()
		}
		if cost != nil {
			e.Cost = cost()
		}
		if err != nil {
			e.Err = err.Error()
		}
		sl.Record(e)
	}
}
