package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is how many ring positions each shard claims; more
// positions smooth the key distribution.
const virtualNodes = 64

// hashRing places tile keys on shards by consistent hashing: each
// shard claims virtualNodes FNV-1a positions, and a key belongs to the
// first position at or after its own hash, wrapping around.
type hashRing []ringSlot

type ringSlot struct {
	hash  uint64
	shard int
}

// newRing builds the ring for the shards at addrs, in declaration
// order; a shard's positions depend only on its address.
func newRing(addrs []string) hashRing {
	var ring hashRing
	for i, addr := range addrs {
		for v := 0; v < virtualNodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", addr, v)
			ring = append(ring, ringSlot{hash: h.Sum64(), shard: i})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	return ring
}

// owner returns the shard that owns key.
func (ring hashRing) owner(key []byte) int {
	h := fnv.New64a()
	h.Write(key)
	sum := h.Sum64()
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= sum })
	if i == len(ring) {
		i = 0
	}
	return ring[i].shard
}
