package engine

import (
	"math/rand"
	"testing"

	"costcache/internal/cache"
	"costcache/internal/cost"
	"costcache/internal/replacement"
)

// refShadow is what a shard's LRU shadow was before it became a tag
// directory, kept as the reference model the engine's shadow is held against:
// a cache.Cache of the engine's geometry under replacement.NewLRU, priced by
// a map of every key's last known cost (written on each install and refresh,
// never pruned). It spans the whole engine: placement commutes with the shard
// count, so one model over the global sets stands for any number of shards.
type refShadow struct {
	c     *cache.Cache
	costs map[uint64]replacement.Cost
	sets  uint64
}

func newRefShadow(sets, ways int) *refShadow {
	r := &refShadow{costs: make(map[uint64]replacement.Cost), sets: uint64(sets)}
	r.c = cache.New(cache.Config{
		Name:       "ref-shadow",
		SizeBytes:  sets * ways,
		Ways:       ways,
		BlockBytes: 1, // keys are "blocks": no spatial locality to model
		Policy:     replacement.NewLRU(),
		Cost:       cost.Func(func(block uint64) replacement.Cost { return r.costs[block] }),
	})
	return r
}

// block pins the model's set to the engine's global set and carries the key
// in the tag.
func (r *refShadow) block(key uint64) uint64 {
	return key*r.sets + mix64(key)&(r.sets-1)
}

// touch replays an engine hit; write replays an install or a Set refresh,
// which also reprice the key.
func (r *refShadow) touch(key uint64) { r.c.Access(r.block(key), false) }

func (r *refShadow) write(key uint64, c replacement.Cost) {
	r.costs[r.block(key)] = c
	r.touch(key)
}

func (r *refShadow) cost() int64 { return r.c.Stats().AggCost }

const (
	sopGetOrLoad = iota
	sopGet
	sopSet
	sopInvalidate
)

type shadowOp struct {
	kind int
	key  uint64
	cost replacement.Cost // Set only: independent of what the loader charges
}

// genShadowOps draws n seeded ops over keys distinct keys with costs in
// {1..8}: about 55% GetOrLoad, 15% Get, 20% Set and, unless disabled, 10%
// Invalidate (redrawn as GetOrLoad otherwise, so both streams share keys).
func genShadowOps(seed int64, n, keys int, invalidate bool) []shadowOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]shadowOp, n)
	for i := range ops {
		o := shadowOp{key: uint64(rng.Intn(keys)), cost: replacement.Cost(1 + rng.Intn(8))}
		switch p := rng.Intn(100); {
		case p < 55:
			o.kind = sopGetOrLoad
		case p < 70:
			o.kind = sopGet
		case p < 90:
			o.kind = sopSet
		case invalidate:
			o.kind = sopInvalidate
		}
		ops[i] = o
	}
	return ops
}

func loaderCost(key uint64) replacement.Cost { return replacement.Cost(1 + mix64(key)>>61) }

// replayShadow drives ops through e and, from what each call reports (was it
// a hit, did the loader run), through the reference model, comparing the two
// shadow sums every 1000 ops.
func replayShadow(t *testing.T, e *Engine, ref *refShadow, ops []shadowOp) {
	t.Helper()
	var val any = "v"
	loaded := false
	load := func(key uint64) (any, replacement.Cost, error) {
		loaded = true
		return val, loaderCost(key), nil
	}
	for i, o := range ops {
		switch o.kind {
		case sopGetOrLoad:
			loaded = false
			if _, err := e.GetOrLoad(o.key, load); err != nil {
				t.Fatal(err)
			}
			if loaded {
				ref.write(o.key, loaderCost(o.key))
			} else {
				ref.touch(o.key)
			}
		case sopGet:
			if _, ok := e.Get(o.key); ok {
				ref.touch(o.key)
			}
		case sopSet:
			e.Set(o.key, val, o.cost)
			ref.write(o.key, o.cost)
		case sopInvalidate:
			e.Invalidate(o.key) // the shadow, as ever, does not see it
		}
		if (i+1)%1000 == 0 {
			if got, want := e.Stats().ShadowCost, ref.cost(); got != want {
				t.Fatalf("after %d ops: ShadowCost %d, reference LRU cache paid %d", i+1, got, want)
			}
		}
	}
}

// TestShadowMatchesReferenceModel is the differential test of the map-free
// shadow: on a long random stream over 8× capacity, for every paper policy
// and shard count, ShadowCost equals what the old cache+LRU+cost-map
// construction pays at every checkpoint, and no Stats field depends on the
// shard count.
func TestShadowMatchesReferenceModel(t *testing.T) {
	const sets, ways, n = 64, 4, 100_000
	ops := genShadowOps(42, n, 8*sets*ways, true)
	for _, name := range []string{"LRU", "BCL", "DCL", "ACL", "GD"} {
		policy, ok := replacement.ByName(name)
		if !ok {
			t.Fatalf("no policy %s", name)
		}
		var one Stats
		for _, shards := range []int{1, 4, 16} {
			e := New(Config{Shards: shards, Sets: sets, Ways: ways, Policy: policy, Shadow: true})
			replayShadow(t, e, newRefShadow(sets, ways), ops)
			st := e.Stats()
			if st.ShadowCost == 0 || st.Evictions == 0 {
				t.Fatalf("%s/%d shards: stream exercised nothing: %+v", name, shards, st)
			}
			if shards == 1 {
				one = st
			} else if st != one {
				t.Errorf("%s: %d shards gave %+v, 1 shard %+v", name, shards, st, one)
			}
		}
	}
}

// TestLRUEngineSavesNothing pins the shadow's exactness from the other side:
// without Invalidate (the one op the shadow does not see) an LRU engine and
// its LRU shadow make the same decisions, so the savings are exactly zero.
func TestLRUEngineSavesNothing(t *testing.T) {
	const sets, ways = 64, 4
	ops := genShadowOps(42, 100_000, 8*sets*ways, false)
	for _, shards := range []int{1, 4, 16} {
		e := New(Config{Shards: shards, Sets: sets, Ways: ways, Policy: lruFactory, Shadow: true})
		replayShadow(t, e, newRefShadow(sets, ways), ops)
		st := e.Stats()
		if st.CostPaid == 0 || st.ShadowCost != st.CostPaid || st.Savings() != 0 {
			t.Errorf("%d shards: LRU engine paid %d, its shadow %d (savings %v), want equal",
				shards, st.CostPaid, st.ShadowCost, st.Savings())
		}
	}
}
