package engine

import (
	"sync/atomic"

	"costcache/internal/replacement"
)

// lruShadow is a shard's exact LRU shadow: a tag directory of the shard's own
// geometry that replays every engine touch and install under true LRU and
// sums the miss costs LRU would have paid. It stores no costs of its own. The
// engine touches it only for a key that is resident at that instant (a hit,
// or the install just made), so the cost a shadow miss must charge — the
// key's last known cost — is always the one the resident entry carries, and
// the caller passes it in. The zero value is a disabled shadow.
//
// All fields but cost are guarded by the shard lock.
type lruShadow struct {
	ways int
	tags []uint64 // sets×ways; each set's keys in recency order, MRU first
	live []int32  // occupied prefix of each set's tags
	// cost is the running sum of shadow miss costs: written under the shard
	// lock, atomic so Stats reads it without one.
	cost atomic.Int64
}

func (sh *lruShadow) init(sets, ways int) {
	sh.ways = ways
	sh.tags = make([]uint64, sets*ways)
	sh.live = make([]int32, sets)
}

// touch replays one reference to key, resident in the engine with cost c.
// The shadow never sees invalidations (an upstream change is not a
// replacement decision), so a set only ever fills up.
func (sh *lruShadow) touch(set int, key uint64, c replacement.Cost) {
	if sh.tags == nil {
		return
	}
	t := sh.tags[set*sh.ways : (set+1)*sh.ways]
	n := int(sh.live[set])
	i := 0
	for i < n && t[i] != key {
		i++
	}
	if i == n { // shadow miss: charge, then grow the set or drop its LRU tag
		sh.cost.Add(int64(c))
		if n < len(t) {
			sh.live[set]++
		} else {
			i = n - 1
		}
	}
	copy(t[1:i+1], t[:i])
	t[0] = key
}
