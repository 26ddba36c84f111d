package serve

import (
	"testing"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// TestRingPlacementPinned pins which shard owns each tile of a fixed
// three-shard fleet. A tile's owner is the ring position of its key's
// hash, so any change to the key bytes (or to the ring) would move
// data between the shards of a running fleet and reopen tiles under
// new directory names. The expected owners were computed before tile
// keys moved into store.Grid.
func TestRingPlacementPinned(t *testing.T) {
	addrs := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	cases := []struct {
		idx   []uint64
		key   string
		shard int
	}{
		{[]uint64{0, 0}, "t-0-0", 1},
		{[]uint64{0, 1}, "t-0-1", 1},
		{[]uint64{1, 0}, "t-1-0", 1},
		{[]uint64{2, 3}, "t-2-3", 1},
		{[]uint64{7, 7}, "t-7-7", 1},
		{[]uint64{10, 0}, "t-10-0", 2},
		{[]uint64{12, 34}, "t-12-34", 1},
		{[]uint64{99, 100}, "t-99-100", 1},
		{[]uint64{1000, 7}, "t-1000-7", 2},
		{[]uint64{123456, 789}, "t-123456-789", 0},
		{[]uint64{0, 0, 0}, "t-0-0-0", 2},
		{[]uint64{1, 2, 3}, "t-1-2-3", 0},
		{[]uint64{10, 11, 12}, "t-10-11-12", 1},
		{[]uint64{3, 0, 41}, "t-3-0-41", 1},
		{[]uint64{255, 1024, 65536}, "t-255-1024-65536", 1},
	}
	ring := newRing(addrs)
	for _, c := range cases {
		shape := make(tensor.Shape, len(c.idx))
		tile := make(tensor.Shape, len(c.idx))
		for d := range shape {
			shape[d], tile[d] = 1<<40, 1<<10
		}
		g, err := store.NewGrid(shape, tile)
		if err != nil {
			t.Fatal(err)
		}
		if key := g.Key(c.idx); key != c.key {
			t.Errorf("tile %v: key %q, want %q", c.idx, key, c.key)
		}
		r := &Router{grid: g, ring: ring}
		if got := r.owner(c.idx); got != c.shard {
			t.Errorf("tile %v: owned by shard %d, want %d", c.idx, got, c.shard)
		}
	}
}
