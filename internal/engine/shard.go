package engine

import (
	"fmt"
	"sync"
	"time"

	"costcache/internal/obs"
	"costcache/internal/obs/reqspan"
	"costcache/internal/replacement"
)

// shard is one lock domain of the engine: a slice of the global set space,
// its own policy instance, the in-flight load table and the optional LRU
// shadow. All fields below mu are guarded by it; the counters and the
// shadow's cost sum are atomic so Stats can read them without stopping
// traffic.
type shard struct {
	mu     sync.Mutex
	policy replacement.Policy
	id     int // shard index, stamped into spans and analytics
	sets   int // local set count (global sets / shards)
	ways   int

	// entries is the shard's whole storage, set-major: way w of set lives at
	// entries[set*ways+w], so a probe walks one contiguous run.
	entries []entry

	// flights holds the in-flight GetOrLoad per key; waiters block on the
	// flight's done channel off-lock, so a slow loader never holds the shard.
	// flightsMax is the table's high-water depth (mutex-guarded). spare is a
	// finished inline flight no waiter ever saw, kept for the next miss.
	flights    map[uint64]*flight
	flightsMax int
	spare      *flight

	// shadow replays touches and installs under true LRU (disabled when zero).
	shadow lruShadow

	// ghosts retains the last sets×ways evicted values, each with the cost
	// its entry carried, for serve-stale (nil unless the engine's resilience
	// config enables it). gring is a FIFO of ghost keys bounding the map at
	// the shard's own capacity.
	ghosts map[uint64]ghost
	gring  []uint64
	ghead  int

	hits, misses, coalesced *obs.Counter
	evictions, costPaid     *obs.Counter
	lockWait                *obs.Counter
}

// entry is one way of one set. cost is the predicted next-miss cost the
// entry's last writer gave it: what the policy was told at Fill, what the
// shadow charges when it misses the key, and the class its ghost keeps.
// val and cost always come from the same writer.
type entry struct {
	key   uint64
	cost  replacement.Cost
	val   any
	valid bool
}

// flight is one in-flight load. The result fields are written by the leader
// (or, on the resilient path, the background load goroutine) before done is
// closed and read by waiters after it, so the channel close publishes them.
//
// On the inline path done starts nil and the first waiter to find the flight
// makes it, under the shard lock (see loadInline).
type flight struct {
	done     chan struct{}
	val      any
	cost     replacement.Cost
	charged  int64 // cost actually charged at install (0 if a Set won the race)
	err      error
	panicked bool
	pan      any
}

// ghost is one evicted-but-retained value: the serve-stale fallback when a
// breaker is open or a deadline expires. slot is its position in the gring
// FIFO (a re-ghosted key abandons its old slot, which then tombstones).
type ghost struct {
	val  any
	cost replacement.Cost
	slot int
}

func newShard(id, sets, ways int, p replacement.Policy, reg *obs.Registry, ns string, withShadow, withGhosts bool) *shard {
	s := &shard{
		policy:  p,
		id:      id,
		sets:    sets,
		ways:    ways,
		entries: make([]entry, sets*ways),
		flights: make(map[uint64]*flight),
	}
	p.Reset(sets, ways)
	counter := func(base string) *obs.Counter {
		if reg == nil {
			return &obs.Counter{}
		}
		return reg.Counter(shardLabel(ns, base, id))
	}
	s.hits = counter("engine_hits")
	s.misses = counter("engine_misses")
	s.coalesced = counter("engine_coalesced")
	s.evictions = counter("engine_evictions")
	s.costPaid = counter("engine_cost_paid")
	s.lockWait = counter("engine_lock_wait_ns")
	if withGhosts {
		s.ghosts = make(map[uint64]ghost)
		s.gring = make([]uint64, sets*ways)
	}
	if withShadow {
		s.shadow.init(sets, ways)
	}
	return s
}

// lock acquires the shard mutex, charging blocked time to the lock-wait
// counter. TryLock keeps the uncontended fast path free of clock reads.
func (s *shard) lock() {
	if s.mu.TryLock() {
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	s.lockWait.Add(time.Since(t0).Nanoseconds())
}

// at returns way w of set.
func (s *shard) at(set, w int) *entry { return &s.entries[set*s.ways+w] }

// probe walks set once and returns the way holding key (-1 if none) and, when
// the key is absent, the first invalid way (-1 if the set is full) — where an
// install under the same lock hold must go.
func (s *shard) probe(set int, key uint64) (way, free int) {
	free = -1
	ents := s.entries[set*s.ways : (set+1)*s.ways]
	for w := range ents {
		if e := &ents[w]; !e.valid {
			if free < 0 {
				free = w
			}
		} else if e.key == key {
			return w, free
		}
	}
	return -1, free
}

// hit records a hit on way w of set, which holds key — the counter, the
// policy's Access+Touch, the shadow's replay — and returns the entry's value
// (lock held).
func (s *shard) hit(set, w int, key uint64, sp *reqspan.Span) any {
	s.hits.Inc()
	s.policy.Access(set, key, true)
	s.policy.Touch(set, w)
	sp.Mark(reqspan.StageDecision)
	en := s.at(set, w)
	s.shadow.touch(set, key, en.cost)
	sp.Mark(reqspan.StageShadow)
	return en.val
}

// settle ends a successful load of key (lock held, flight already out of the
// table): install the loaded value, or, when a concurrent Set installed the
// key while the loader ran, overwrite that entry — value and cost together,
// so leader, waiters and cache agree on the loader's result. It returns the
// cost charged, 0 in the overwrite case.
func (s *shard) settle(set int, key uint64, value any, c replacement.Cost, sp *reqspan.Span) (charged int64) {
	w, free := s.probe(set, key)
	if w >= 0 {
		en := s.at(set, w)
		en.val, en.cost = value, c
		sp.Mark(reqspan.StageFill)
		return 0
	}
	s.install(set, free, key, value, c, sp)
	return int64(c)
}

// install places key into set (which must not already hold it) at free, the
// invalid way probe reported under this lock hold, or, with free < 0, over
// the policy's victim. It charges cost and mirrors the install into the
// shadow. Callers hold the shard lock and have counted the miss; sp is the
// caller's (usually nil) request span, marked at the fill/shadow stage
// boundaries.
func (s *shard) install(set, free int, key uint64, value any, c replacement.Cost, sp *reqspan.Span) {
	s.policy.Access(set, key, false)
	w := free
	if w < 0 {
		w = s.policy.Victim(set)
		if w < 0 || w >= s.ways || !s.at(set, w).valid {
			panic(fmt.Sprintf("engine: policy %s returned bad victim %d", s.policy.Name(), w))
		}
		s.evictions.Inc()
	}
	en := s.at(set, w)
	if free < 0 && s.ghosts != nil {
		s.stashGhost(en.key, en.val, en.cost)
	}
	*en = entry{key: key, cost: c, val: value, valid: true}
	s.policy.Fill(set, w, key, c)
	s.costPaid.Add(int64(c))
	sp.AddCost(int64(c))
	sp.Mark(reqspan.StageFill)
	s.shadow.touch(set, key, c)
	sp.Mark(reqspan.StageShadow)
}

// addFlight registers f as key's in-flight load (lock held).
func (s *shard) addFlight(key uint64, f *flight) {
	s.flights[key] = f
	if len(s.flights) > s.flightsMax {
		s.flightsMax = len(s.flights)
	}
}

// stashGhost retains an evicted value for serve-stale (lock held). The FIFO
// ring bounds the ghost map at the shard's capacity: the incoming ghost
// overwrites the ring's oldest slot, evicting whichever ghost still lives
// there. A key ghosted again abandons its old slot (the stale ring entry no
// longer matches the map and is skipped when its turn comes).
func (s *shard) stashGhost(key uint64, val any, c replacement.Cost) {
	slot := s.ghead
	if old, ok := s.ghosts[s.gring[slot]]; ok && old.slot == slot {
		delete(s.ghosts, s.gring[slot])
	}
	s.gring[slot] = key
	s.ghosts[key] = ghost{val: val, cost: c, slot: slot}
	s.ghead = (s.ghead + 1) % len(s.gring)
}

// ghostValue looks up key's retained value, taking the shard lock (callers
// on the degraded path hold no lock). Safe with ghosts disabled.
func (s *shard) ghostValue(key uint64) (any, bool) {
	s.lock()
	defer s.mu.Unlock()
	g, ok := s.ghosts[key]
	return g.val, ok
}
