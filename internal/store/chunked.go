package store

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/store/fragcache"
	"sparseart/internal/tensor"
)

// Chunked is the paper's remedy for linear-address overflow (§II-B): "a
// practical solution … is to break large tensors into small blocks" and
// linearize against each block's local boundary. It partitions the
// domain into fixed tiles, keeps one Store per non-empty tile, and
// translates coordinates between the global frame and each tile's local
// frame. The global shape may have a volume far beyond uint64; only
// each tile's volume must fit.
type Chunked struct {
	fs     fsim.FS
	prefix string
	kind   core.Kind
	grid   *Grid
	codec  compress.ID
	// tiles lists the materialized tiles. It is copy-on-write: readers
	// load the published set and walk it without a lock, and tileStore
	// publishes a new set, under createMu, when it materializes a tile.
	tiles    atomic.Pointer[tileSet]
	createMu sync.Mutex
	// opts are forwarded to every tile Store, so tiles share the parent's
	// observability registry, build options, and manifest policy.
	opts []Option
	obs  *obs.Registry
	// cache is the reader cache shared by every tile: one byte budget
	// for the whole chunked store instead of one per tile. nil when
	// caching is off or per-tile budgeting was requested (see
	// sharedCacheEnv); tiles then resolve their own budgets.
	cache *fragcache.Cache
	// ingestWorkers is the WithIngestWorkers default for the cross-tile
	// batched ingest (chunked_ingest.go).
	ingestWorkers int
}

// Observability span names for the chunked store's composite operations.
// Each wraps the per-tile sub-store spans that fire inside it.
const (
	obsChunkedWrite  = "store.chunked.write"
	obsChunkedRead   = "store.chunked.read"
	obsChunkedDelete = "store.chunked.delete"
)

// obsReg resolves the chunked store's registry like Store.obsReg.
func (c *Chunked) obsReg() *obs.Registry {
	if c.obs != nil {
		return c.obs
	}
	return obs.Global()
}

// NewChunked creates a chunked store with the given tile extents. Each
// tile's volume must fit in uint64. The tiling parameters are
// persisted in a small CHUNKED manifest under prefix, so the store can
// be reopened later with OpenChunked.
func NewChunked(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, opts ...Option) (*Chunked, error) {
	c, err := newChunkedShell(fs, prefix, kind, shape, tile, opts)
	if err != nil {
		return nil, err
	}
	if err := c.writeChunkedManifest(); err != nil {
		return nil, err
	}
	return c, nil
}

// newChunkedShell validates the tiling parameters and builds the
// in-memory Chunked with no tiles — the part NewChunked and
// OpenChunked share.
func newChunkedShell(fs fsim.FS, prefix string, kind core.Kind, shape, tile tensor.Shape, opts []Option) (*Chunked, error) {
	grid, err := NewGrid(shape, tile)
	if err != nil {
		return nil, err
	}
	if _, err := core.Get(kind); err != nil {
		return nil, err
	}
	c := &Chunked{fs: fs, prefix: prefix, kind: kind, grid: grid, opts: opts}
	c.tiles.Store(&tileSet{})
	// Probe the option set once: misuse is rejected here (before any
	// tile exists) rather than on the first write that materializes one.
	var probe Store
	for _, o := range opts {
		o(&probe)
	}
	if err := probe.finishOptions(); err != nil {
		return nil, err
	}
	c.codec = probe.codec
	c.obs = probe.obs
	c.ingestWorkers = probe.ingestWorkers
	// One reader cache for all tiles: the budget the options/environment
	// would give a single store becomes the chunked store's global
	// budget, so N tiles stop claiming N budgets. SPARSEART_CHUNKED_SHARED_CACHE=off
	// restores independent per-tile budgeting (the CI matrix pins both).
	switch {
	case probe.sharedCache != nil:
		c.cache = probe.sharedCache
	case os.Getenv(sharedCacheEnv) == "off":
		// Tiles resolve their own budgets from the forwarded options.
	default:
		if budget := probe.resolveCacheBudget(); budget > 0 {
			c.cache = fragcache.New(budget, c.obsReg)
		}
	}
	return c, nil
}

// sharedCacheEnv disables the chunked store's shared reader cache
// ("off"): tiles fall back to budgeting independently, the pre-share
// behavior CI pins in its chunked-ingest matrix.
const sharedCacheEnv = "SPARSEART_CHUNKED_SHARED_CACHE"

// SharedCache returns the reader cache all tiles share, or nil when
// tiles budget independently (or caching is off). The property tests
// use it to assert the one-budget invariant.
func (c *Chunked) SharedCache() *fragcache.Cache { return c.cache }

// Obs returns the registry this chunked store (and every tile) reports
// to: the injected one (WithObs) or the process-global registry. Bind
// an internal/obs/serve Server to it to scrape per-tile cache metrics
// and the write/read phase histograms live.
func (c *Chunked) Obs() *obs.Registry { return c.obsReg() }

// Close folds every tile's manifest log into its checkpoint, bounding
// the replay work the next open of each tile pays. Tiles remain usable.
func (c *Chunked) Close() error {
	for _, t := range c.loadTiles().tiles {
		if err := t.st.Close(); err != nil {
			return fmt.Errorf("store: close tile %s: %w", t.key, err)
		}
	}
	return nil
}

// tileRef is one materialized tile: its Store, and the index, key and
// origin it was materialized or reopened at, computed once.
type tileRef struct {
	idx    []uint64
	key    string
	origin []uint64
	st     *Store
}

// tileSet is a published set of materialized tiles in row-major index
// order, the order Grid.Walk visits. Callers must not modify it.
type tileSet struct {
	idx   [][]uint64 // idx[i] is tiles[i].idx
	tiles []*tileRef
}

// loadTiles returns the published tile set.
func (c *Chunked) loadTiles() *tileSet { return c.tiles.Load() }

// find returns the tile at idx, or nil when it is not materialized.
func (s *tileSet) find(idx []uint64) *tileRef {
	if i, ok := slices.BinarySearchFunc(s.idx, idx, slices.Compare[[]uint64]); ok {
		return s.tiles[i]
	}
	return nil
}

// with returns a new set holding s's tiles and t.
func (s *tileSet) with(t *tileRef) *tileSet {
	i, _ := slices.BinarySearchFunc(s.idx, t.idx, slices.Compare[[]uint64])
	return &tileSet{
		idx:   slices.Insert(slices.Clip(s.idx), i, t.idx),
		tiles: slices.Insert(slices.Clip(s.tiles), i, t),
	}
}

// newTile wraps the store of the tile at idx.
func (c *Chunked) newTile(idx []uint64, key string, st *Store) *tileRef {
	return &tileRef{idx: idx, key: key, origin: c.grid.Origin(idx), st: st}
}

// tileOpts returns the options a tile store opens with: the forwarded
// ones, plus the shared cache (superseding any forwarded per-tile
// budget — it was already spent on the shared cache) and a scope
// label for per-tile hit metrics.
func (c *Chunked) tileOpts(key string) []Option {
	if c.cache == nil {
		return c.opts
	}
	return append(c.opts[:len(c.opts):len(c.opts)], withTileCache(c.cache), withCacheScope(key))
}

// eachTile calls fn, in row-major tile order, for every materialized
// tile region overlaps, with the overlap in the tile's frame; a nil
// region visits every tile with a nil local region. It is the one tile
// walk region reads, kernels and deletes share. ctx is checked before
// each tile.
func (c *Chunked) eachTile(ctx context.Context, region *tensor.Region, fn func(t *tileRef, local *tensor.Region) error) error {
	set := c.loadTiles()
	var err error
	visit := func(t *tileRef, local *tensor.Region) bool {
		if err = ctx.Err(); err == nil {
			err = fn(t, local)
		}
		return err == nil
	}
	if len(set.tiles) == 0 {
		return nil // a nil set.idx would make Walk visit every index
	}
	if region == nil {
		for _, t := range set.tiles {
			if !visit(t, nil) {
				break
			}
		}
		return err
	}
	c.grid.Walk(*region, set.idx, func(i int, _ []uint64) bool {
		t := set.tiles[i]
		local, ok := c.grid.Clip(*region, t.idx)
		return !ok || visit(t, &local)
	})
	return err
}

// Shape returns the global shape.
func (c *Chunked) Shape() tensor.Shape { return c.grid.shape }

// Kind returns the organization every tile writes.
func (c *Chunked) Kind() core.Kind { return c.kind }

// Tile returns the tile extents (interior tiles; edge tiles clip).
func (c *Chunked) Tile() tensor.Shape { return c.grid.tile }

// Tiles returns the number of non-empty tiles.
func (c *Chunked) Tiles() int { return len(c.loadTiles().tiles) }

// Fragments sums live fragments across all tiles.
func (c *Chunked) Fragments() int {
	var total int
	for _, t := range c.loadTiles().tiles {
		total += t.st.Fragments()
	}
	return total
}

// Epoch sums the tile manifest epochs — a monotonic change counter for
// the whole chunked store, not a single MVCC version.
func (c *Chunked) Epoch() uint64 {
	var total uint64
	for _, t := range c.loadTiles().tiles {
		total += t.st.Epoch()
	}
	return total
}

// TotalBytes sums fragment bytes across all tiles.
func (c *Chunked) TotalBytes() int64 {
	var total int64
	for _, t := range c.loadTiles().tiles {
		total += t.st.TotalBytes()
	}
	return total
}

// tileStore returns the store of the tile at idx, materializing it on
// first use.
func (c *Chunked) tileStore(idx []uint64) (*Store, error) {
	if t := c.loadTiles().find(idx); t != nil {
		return t.st, nil
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	old := c.loadTiles()
	if t := old.find(idx); t != nil {
		return t.st, nil // another writer created it meanwhile
	}
	key := c.grid.Key(idx)
	s, err := Create(c.fs, c.prefix+"/"+key, c.kind, c.grid.TileShape(idx), c.tileOpts(key)...)
	if err != nil {
		return nil, err
	}
	next := old.with(c.newTile(slices.Clone(idx), key, s))
	c.tiles.Store(next)
	c.obsReg().Gauge("store.chunked.tiles", "kind", c.kind.String()).Set(int64(len(next.tiles)))
	return s, nil
}

// tilePart is one tile's slice of a partitioned point set, in tile-local
// coordinates.
type tilePart struct {
	idx    []uint64
	coords *tensor.Coords
	vals   []float64
}

// partitionByTile splits global points into per-tile buckets with
// tile-local coordinates, preserving input order within each bucket.
// Returned keys are in first-seen order; callers sort for determinism.
// A point outside the shape is an error when vals is given (a write),
// and is dropped when vals is nil (a probe, which simply does not
// find it).
func (c *Chunked) partitionByTile(coords *tensor.Coords, vals []float64) (map[string]*tilePart, []string, error) {
	parts := map[string]*tilePart{}
	var keys []string
	idx := make([]uint64, coords.Dims())
	local := make([]uint64, coords.Dims())
	var key []byte
	for i, n := 0, coords.Len(); i < n; i++ {
		p := coords.At(i)
		if !c.grid.shape.Contains(p) {
			if vals == nil {
				continue
			}
			return nil, nil, fmt.Errorf("store: point %v outside shape %v", p, c.grid.shape)
		}
		c.grid.TileOf(idx, p)
		key = c.grid.AppendKey(key[:0], idx)
		g, ok := parts[string(key)]
		if !ok {
			g = &tilePart{idx: slices.Clone(idx), coords: tensor.NewCoords(coords.Dims(), 0)}
			parts[string(key)] = g
			keys = append(keys, string(key))
		}
		for d := range p {
			local[d] = p[d] - idx[d]*c.grid.tile[d]
		}
		g.coords.Append(local...)
		if vals != nil {
			g.vals = append(g.vals, vals[i])
		}
	}
	return parts, keys, nil
}

// Write partitions the points by tile and writes one fragment per
// non-empty tile, translating to tile-local coordinates so every linear
// address stays within uint64.
func (c *Chunked) Write(coords *tensor.Coords, vals []float64) (*WriteReport, error) {
	if coords.Len() != len(vals) {
		return nil, fmt.Errorf("store: %d points with %d values", coords.Len(), len(vals))
	}
	if coords.Dims() != c.grid.shape.Dims() {
		return nil, fmt.Errorf("store: %d-dim coords for %d-dim store", coords.Dims(), c.grid.shape.Dims())
	}
	root := c.obsReg().Start(obsChunkedWrite)
	defer root.End()
	groups, keys, err := c.partitionByTile(coords, vals)
	if err != nil {
		return nil, err
	}
	sort.Strings(keys) // deterministic tile order
	total := &WriteReport{}
	for _, key := range keys {
		g := groups[key]
		s, err := c.tileStore(g.idx)
		if err != nil {
			return nil, err
		}
		rep, err := s.Write(g.coords, g.vals)
		if err != nil {
			return nil, err
		}
		total.Add(rep)
	}
	return total, nil
}

// Read probes global points across the tiles they fall in and returns
// the found points sorted by global lexicographic (row-major) order.
//
// Deprecated: Read is a thin wrapper; use Query with a Probe target.
func (c *Chunked) Read(probe *tensor.Coords) (*Result, *ReadReport, error) {
	return c.Query(context.Background(), QueryRequest{Probe: probe, AsOf: AsOfLatest})
}

// ReadRegion reads a rectangular global region.
//
// Deprecated: ReadRegion is a thin wrapper; use Query with a Region
// target.
func (c *Chunked) ReadRegion(region tensor.Region) (*Result, *ReadReport, error) {
	return c.Query(context.Background(), QueryRequest{Region: &region, AsOf: AsOfLatest})
}

// DeleteRegion writes tombstones over the region in every existing tile
// it intersects (tiles with no data need none), found by the same tile
// walk region reads use: a small delete in a store of many tiles
// touches only the tiles it covers. The region must lie inside the
// shape (ValidateRegion).
func (c *Chunked) DeleteRegion(region tensor.Region) (*WriteReport, error) {
	if err := ValidateRegion(c.grid.shape, region); err != nil {
		return nil, err
	}
	root := c.obsReg().Start(obsChunkedDelete)
	defer root.End()
	total := &WriteReport{}
	err := c.eachTile(context.Background(), &region, func(t *tileRef, local *tensor.Region) error {
		rep, err := t.st.DeleteRegion(*local)
		total.Add(rep)
		return err
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}
