package store

import (
	"fmt"
	"sort"
	"strings"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// Chunked-store persistence: NewChunked records the tiling parameters
// (kind, shape, tile extents) in one small CHUNKED manifest, and
// OpenChunked restores the store from it — discovering the
// materialized tiles by listing the prefix and opening each tile's own
// Store manifest. This is what lets a shard process host a chunked
// store across restarts (cmd/sparsestore serve).

const (
	chunkedManifestName  = "CHUNKED"
	chunkedManifestMagic = uint32(0x53434b31) // "SCK1"
)

// chunkedManifestPath returns the manifest's name under the prefix.
func chunkedManifestPath(prefix string) string {
	return prefix + "/" + chunkedManifestName
}

// writeChunkedManifest persists the tiling parameters.
func (c *Chunked) writeChunkedManifest() error {
	w := buf.GetWriter(64)
	defer buf.PutWriter(w)
	w.U32(chunkedManifestMagic)
	w.U8(uint8(c.kind))
	w.U16(uint16(c.shape.Dims()))
	w.RawU64s(c.shape)
	w.RawU64s(c.tile)
	if err := c.fs.WriteFile(chunkedManifestPath(c.prefix), w.Bytes()); err != nil {
		return fmt.Errorf("store: write chunked manifest: %w", err)
	}
	return nil
}

// decodeChunkedManifest parses a CHUNKED manifest.
func decodeChunkedManifest(data []byte) (kind core.Kind, shape, tile tensor.Shape, err error) {
	r := buf.NewReader(data)
	if magic := r.U32(); magic != chunkedManifestMagic {
		return 0, nil, nil, fmt.Errorf("store: bad chunked manifest magic %#x", magic)
	}
	kind = core.Kind(r.U8())
	dims := uint64(r.U16())
	shape = tensor.Shape(r.RawU64s(dims))
	tile = tensor.Shape(r.RawU64s(dims))
	if err := r.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("store: chunked manifest: %w", err)
	}
	return kind, shape, tile, nil
}

// OpenChunked reopens a chunked store created by NewChunked: the
// tiling parameters come from the CHUNKED manifest, and every tile
// directory found under the prefix is opened through the tile Store's
// own manifest/log recovery. Options are forwarded to the tiles the
// way NewChunked forwards them.
func OpenChunked(fs fsim.FS, prefix string, opts ...Option) (*Chunked, error) {
	data, err := fs.ReadFile(chunkedManifestPath(prefix))
	if err != nil {
		return nil, fmt.Errorf("store: open chunked %s: %w", prefix, err)
	}
	kind, shape, tile, err := decodeChunkedManifest(data)
	if err != nil {
		return nil, err
	}
	c, err := newChunkedShell(fs, prefix, kind, shape, tile, opts)
	if err != nil {
		return nil, err
	}
	tiles := map[string]*Store{}
	for _, key := range discoverTileKeys(fs, prefix, shape.Dims()) {
		idx := c.tileIndexFromKey(key)
		if idx == nil {
			continue
		}
		tileOpts := c.opts
		if c.cache != nil {
			tileOpts = append(tileOpts[:len(tileOpts):len(tileOpts)], withTileCache(c.cache), withCacheScope(key))
		}
		s, err := Open(fs, prefix+"/"+key, tileOpts...)
		if err != nil {
			return nil, fmt.Errorf("store: open tile %s: %w", key, err)
		}
		tiles[key] = s
	}
	c.stores.Store(&tiles)
	c.obsReg().Gauge("store.chunked.tiles", "kind", c.kind.String()).Set(int64(len(tiles)))
	return c, nil
}

// discoverTileKeys lists the tile directory names ("t-0-1") that hold
// a manifest or manifest log under prefix, in sorted order. fs.List
// walks recursively, so tile payloads surface their directory.
func discoverTileKeys(fs fsim.FS, prefix string, dims int) []string {
	names, err := fs.List(prefix + "/t-")
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var keys []string
	for _, name := range names {
		rest := strings.TrimPrefix(name, prefix+"/")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue // a file directly under the prefix, not a tile dir
		}
		key := rest[:slash]
		if seen[key] || strings.Count(key, "-") != dims {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
