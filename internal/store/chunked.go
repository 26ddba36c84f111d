package store

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
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
	shape  tensor.Shape // global extents
	tile   tensor.Shape // tile extents
	codec  compress.ID
	// stores maps tile key to tile store. It is copy-on-write: readers
	// load the published map and walk it without a lock, and tileStore
	// publishes a new map, under createMu, when it materializes a tile.
	stores   atomic.Pointer[map[string]*Store]
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
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := tile.Validate(); err != nil {
		return nil, err
	}
	if len(tile) != len(shape) {
		return nil, fmt.Errorf("store: tile rank %d != shape rank %d", len(tile), len(shape))
	}
	if _, ok := tile.Volume(); !ok {
		return nil, fmt.Errorf("store: %w: tile %v", tensor.ErrOverflow, tile)
	}
	if _, err := core.Get(kind); err != nil {
		return nil, err
	}
	c := &Chunked{
		fs: fs, prefix: prefix, kind: kind,
		shape: shape.Clone(), tile: tile.Clone(),
		opts: opts,
	}
	c.stores.Store(&map[string]*Store{})
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
	for _, t := range c.sortedTiles() {
		if err := t.st.Close(); err != nil {
			return fmt.Errorf("store: close tile %s: %w", t.key, err)
		}
	}
	return nil
}

// tileMap returns the published tile map. Callers must not modify it.
func (c *Chunked) tileMap() map[string]*Store { return *c.stores.Load() }

// tileRef is one materialized tile.
type tileRef struct {
	key string
	st  *Store
}

// sortedTiles returns the non-empty tiles in deterministic key order.
func (c *Chunked) sortedTiles() []tileRef {
	m := c.tileMap()
	tiles := make([]tileRef, 0, len(m))
	for key, st := range m {
		tiles = append(tiles, tileRef{key, st})
	}
	slices.SortFunc(tiles, func(a, b tileRef) int { return strings.Compare(a.key, b.key) })
	return tiles
}

// Shape returns the global shape.
func (c *Chunked) Shape() tensor.Shape { return c.shape }

// Kind returns the organization every tile writes.
func (c *Chunked) Kind() core.Kind { return c.kind }

// Tile returns the tile extents (interior tiles; edge tiles clip).
func (c *Chunked) Tile() tensor.Shape { return c.tile }

// Tiles returns the number of non-empty tiles.
func (c *Chunked) Tiles() int { return len(c.tileMap()) }

// Fragments sums live fragments across all tiles.
func (c *Chunked) Fragments() int {
	var total int
	for _, s := range c.tileMap() {
		total += s.Fragments()
	}
	return total
}

// Epoch sums the tile manifest epochs — a monotonic change counter for
// the whole chunked store, not a single MVCC version.
func (c *Chunked) Epoch() uint64 {
	var total uint64
	for _, s := range c.tileMap() {
		total += s.Epoch()
	}
	return total
}

// TotalBytes sums fragment bytes across all tiles.
func (c *Chunked) TotalBytes() int64 {
	var total int64
	for _, s := range c.tileMap() {
		total += s.TotalBytes()
	}
	return total
}

// tileIndex returns the per-dimension tile index of a global point.
func (c *Chunked) tileIndex(p []uint64) []uint64 {
	idx := make([]uint64, len(p))
	for d := range p {
		idx[d] = p[d] / c.tile[d]
	}
	return idx
}

func tileKey(idx []uint64) string {
	var b strings.Builder
	b.WriteString("t")
	for _, v := range idx {
		fmt.Fprintf(&b, "-%d", v)
	}
	return b.String()
}

// tileShape returns the (edge-clipped) extents of the tile at idx.
func (c *Chunked) tileShape(idx []uint64) tensor.Shape {
	s := make(tensor.Shape, len(idx))
	for d := range idx {
		origin := idx[d] * c.tile[d]
		s[d] = c.tile[d]
		if origin+s[d] > c.shape[d] {
			s[d] = c.shape[d] - origin
		}
	}
	return s
}

func (c *Chunked) tileStore(idx []uint64) (*Store, error) {
	key := tileKey(idx)
	if s, ok := c.tileMap()[key]; ok {
		return s, nil
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	old := c.tileMap()
	if s, ok := old[key]; ok {
		return s, nil // another writer created it meanwhile
	}
	opts := c.opts
	if c.cache != nil {
		// Inject the shared cache (superseding any forwarded per-tile
		// budget — it was already spent on the shared cache) and label
		// this tile's traffic for per-tile hit metrics.
		opts = append(opts[:len(opts):len(opts)], withTileCache(c.cache), withCacheScope(key))
	}
	s, err := Create(c.fs, c.prefix+"/"+key, c.kind, c.tileShape(idx), opts...)
	if err != nil {
		return nil, err
	}
	next := make(map[string]*Store, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = s
	c.stores.Store(&next)
	c.obsReg().Gauge("store.chunked.tiles", "kind", c.kind.String()).Set(int64(len(next)))
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
func (c *Chunked) partitionByTile(coords *tensor.Coords, vals []float64) (map[string]*tilePart, []string, error) {
	parts := map[string]*tilePart{}
	var keys []string
	local := make([]uint64, coords.Dims())
	for i, n := 0, coords.Len(); i < n; i++ {
		p := coords.At(i)
		if !c.shape.Contains(p) {
			return nil, nil, fmt.Errorf("store: point %v outside shape %v", p, c.shape)
		}
		idx := c.tileIndex(p)
		key := tileKey(idx)
		g, ok := parts[key]
		if !ok {
			g = &tilePart{idx: idx, coords: tensor.NewCoords(coords.Dims(), 0)}
			parts[key] = g
			keys = append(keys, key)
		}
		for d := range p {
			local[d] = p[d] - idx[d]*c.tile[d]
		}
		g.coords.Append(local...)
		g.vals = append(g.vals, vals[i])
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
	if coords.Dims() != c.shape.Dims() {
		return nil, fmt.Errorf("store: %d-dim coords for %d-dim store", coords.Dims(), c.shape.Dims())
	}
	root := c.obsReg().Start(obsChunkedWrite)
	defer root.End()
	groups, keys, err := c.partitionByTile(coords, vals)
	if err != nil {
		return nil, err
	}
	sort.Strings(keys) // deterministic tile order
	total := &WriteReport{NNZ: coords.Len()}
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
		total.Build += rep.Build
		total.Reorg += rep.Reorg
		total.Write += rep.Write
		total.Others += rep.Others
		total.Bytes += rep.Bytes
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
// it intersects (tiles with no data need none). The intersecting tiles
// are found arithmetically — the region's bounding box maps to a
// hyper-rectangle of tile indices — so a small delete in a store of
// many tiles touches only the tiles it covers, not every tile the store
// has ever materialized. Only when the region spans more candidate
// tiles than exist does the walk fall back to the existing-tile list.
func (c *Chunked) DeleteRegion(region tensor.Region) (*WriteReport, error) {
	if region.Dims() != c.shape.Dims() {
		return nil, fmt.Errorf("store: %d-dim region for %d-dim store", region.Dims(), c.shape.Dims())
	}
	for d := range region.Start {
		if region.Size[d] == 0 || region.Start[d] >= c.shape[d] ||
			region.Start[d]+region.Size[d] > c.shape[d] {
			return nil, fmt.Errorf("store: region outside shape in dim %d", d)
		}
	}
	root := c.obsReg().Start(obsChunkedDelete)
	defer root.End()
	total := &WriteReport{}
	box := region.BBox()
	tiles := c.tileMap()

	// deleteInTile intersects the global region with one tile's frame
	// and writes the tombstone there.
	deleteInTile := func(st *Store, idx []uint64) error {
		tileShape := st.Shape()
		local := tensor.Region{
			Start: make([]uint64, len(idx)),
			Size:  make([]uint64, len(idx)),
		}
		for d := range idx {
			origin := idx[d] * c.tile[d]
			lo := box.Min[d]
			if origin > lo {
				lo = origin
			}
			hi := box.Max[d]
			if end := origin + tileShape[d] - 1; end < hi {
				hi = end
			}
			if lo > hi {
				return nil // tile frame misses the region
			}
			local.Start[d] = lo - origin
			local.Size[d] = hi - lo + 1
		}
		rep, err := st.DeleteRegion(local)
		if err != nil {
			return err
		}
		total.Write += rep.Write
		total.Others += rep.Others
		total.Bytes += rep.Bytes
		return nil
	}

	// The candidate tile-index hyper-rectangle, and whether its volume
	// stays within the number of existing tiles (overflow-safe: the
	// division test rejects before the product can wrap).
	dims := c.shape.Dims()
	lo := make([]uint64, dims)
	hi := make([]uint64, dims)
	span := uint64(1)
	bounded := true
	for d := 0; d < dims; d++ {
		lo[d] = box.Min[d] / c.tile[d]
		hi[d] = box.Max[d] / c.tile[d]
		n := hi[d] - lo[d] + 1
		if bounded && span > uint64(len(tiles))/n {
			bounded = false
		}
		if bounded {
			span *= n
		}
	}

	if bounded {
		idx := append([]uint64(nil), lo...)
		for {
			if st, ok := tiles[tileKey(idx)]; ok {
				if err := deleteInTile(st, idx); err != nil {
					return nil, err
				}
			}
			d := dims - 1
			for d >= 0 {
				idx[d]++
				if idx[d] <= hi[d] {
					break
				}
				idx[d] = lo[d]
				d--
			}
			if d < 0 {
				break
			}
		}
		return total, nil
	}

	for _, t := range c.sortedTiles() {
		idx := c.tileIndexFromKey(t.key)
		if idx == nil {
			return nil, fmt.Errorf("store: corrupt tile key %q", t.key)
		}
		inside := true
		for d := range idx {
			if idx[d] < lo[d] || idx[d] > hi[d] {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		if err := deleteInTile(t.st, idx); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// tileIndexFromKey parses a "t-1-2-3" tile key back to indices.
func (c *Chunked) tileIndexFromKey(key string) []uint64 {
	parts := strings.Split(key, "-")
	if len(parts) != c.shape.Dims()+1 || parts[0] != "t" {
		return nil
	}
	idx := make([]uint64, c.shape.Dims())
	for d, p := range parts[1:] {
		var v uint64
		for _, ch := range p {
			if ch < '0' || ch > '9' {
				return nil
			}
			v = v*10 + uint64(ch-'0')
		}
		idx[d] = v
	}
	return idx
}
