package main

import (
	"math"
	"sort"

	"costcache/internal/replacement"
)

// The benchmark owns its input generator: a splitmix64 stream, a zipf
// sampler over a precomputed CDF and a hashed two-level cost mapping. The
// same seed always yields the same op streams (bench_test.go pins their
// hashes), and the program under test only ever sees the generated inputs.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 generator.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix(seed*0x9e3779b97f4a7c15 + stream)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// unit returns a uniform float in [0,1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// keyDist draws key ranks in [0,n): zipf with exponent s when s > 0 (rank 0
// hottest, P(k) ∝ 1/(k+1)^s), uniform otherwise.
type keyDist struct {
	n   int
	cdf []float64 // nil for uniform
}

func newKeyDist(n int, s float64) keyDist {
	d := keyDist{n: n}
	if s <= 0 {
		return d
	}
	d.cdf = make([]float64, n)
	sum := 0.0
	for k := range d.cdf {
		sum += math.Pow(float64(k+1), -s)
		d.cdf[k] = sum
	}
	for k := range d.cdf {
		d.cdf[k] /= sum
	}
	return d
}

func (d keyDist) draw(r *rng) uint32 {
	if d.cdf == nil {
		return uint32(r.next() % uint64(d.n))
	}
	k := sort.SearchFloat64s(d.cdf, r.unit())
	if k >= d.n {
		k = d.n - 1
	}
	return uint32(k)
}

// Op kinds of the serving workloads.
const (
	opGetOrLoad uint8 = iota
	opGet
	opSet
	opInvalidate
)

// op is one pre-materialised request. rank indexes the key tables; aux is,
// for a Set, the index of its value in the set-value table and, for a read,
// the index of the most recent Set on the same key in cyclic stream order
// (noSet when the key is never set).
type op struct {
	rank uint32
	aux  uint32
	kind uint8
}

const noSet = math.MaxUint32

// opMix is the op-kind split in percent: GetOrLoad, Get, Set, Invalidate.
type opMix [4]int

// genOps draws n ops and resolves each read's aux against the Sets around
// it. It returns the ops and the number of Set ops among them.
func genOps(r *rng, d keyDist, m opMix, n int) ([]op, int) {
	ops := make([]op, n)
	sets := 0
	for i := range ops {
		o := &ops[i]
		o.rank = d.draw(r)
		u := int(r.next() % 100)
		switch {
		case u < m[0]:
			o.kind = opGetOrLoad
		case u < m[0]+m[1]:
			o.kind = opGet
		case u < m[0]+m[1]+m[2]:
			o.kind = opSet
			o.aux = uint32(sets)
			sets++
		default:
			o.kind = opInvalidate
		}
	}
	if sets == 0 {
		for i := range ops {
			ops[i].aux = noSet
		}
		return ops, 0
	}
	// The stream is walked cyclically, so the Set a read may observe is the
	// nearest one behind it on the circle: prime the per-key state with a
	// first pass, then resolve on the second.
	last := make([]uint32, d.n)
	for i := range last {
		last[i] = noSet
	}
	for pass := 0; pass < 2; pass++ {
		for i := range ops {
			o := &ops[i]
			if o.kind == opSet {
				last[o.rank] = o.aux
			} else if pass == 1 {
				o.aux = last[o.rank]
			}
		}
	}
	return ops, sets
}

// hashOps folds a stream into one word; bench_test.go pins it per seed so a
// workload cannot drift silently.
func hashOps(h uint64, ops []op) uint64 {
	for _, o := range ops {
		h = mix(h ^ uint64(o.rank) ^ uint64(o.aux)<<32 ^ uint64(o.kind)<<24)
	}
	return h
}

// keyBase places a seed's keys in their own 2^24-aligned window, so every
// seed exercises a different set placement while rank = key - base stays one
// subtraction.
func keyBase(seed uint64) uint64 { return mix(seed^0x6b657962617365) >> 24 << 24 }

// Cost mapping shared by every serving workload: what cachebench and
// cacheserved default to.
const (
	costLow  replacement.Cost = 1
	costHigh replacement.Cost = 8
	costHAF                   = 0.2
)

// genCosts assigns each key its miss cost by hash(key, seed).
func genCosts(seed, base uint64, n int) []replacement.Cost {
	salt := mix(seed + 0x636f7374)
	costs := make([]replacement.Cost, n)
	for k := range costs {
		u := float64(mix((base+uint64(k))^salt)>>11) / (1 << 53)
		costs[k] = costLow
		if u < costHAF {
			costs[k] = costHigh
		}
	}
	return costs
}
