// Package engine turns the paper's cost-sensitive replacement policies into
// a serving component: a thread-safe, sharded in-process cache that sits on a
// request path and answers Get/Set/GetOrLoad under concurrent load.
//
// The engine partitions a set-associative key space across a power-of-two
// number of shards. A key hashes to one global set; the low set-index bits
// select the shard and the high bits the set within it, so a set — and with
// it every replacement decision — always lives entirely inside one shard.
// Each shard drives its own replacement.Policy instance behind a mutex,
// which is the synchronization boundary the Policy interface documents:
// policies stay single-goroutine, the engine serializes per shard.
//
// Because the key→set mapping never depends on the shard count, a
// deterministic (single-goroutine) request stream produces bit-identical
// hit/miss/cost counters whether the engine runs 1 shard or 64: sharding
// changes only how much of the key space shares a lock, never what any
// policy decides.
//
// Misses coalesce singleflight-style: concurrent GetOrLoad calls for one key
// run the loader once, charge its miss cost once, and share the resulting
// value (or error, or panic — a loader panic propagates to the leader and
// every coalesced waiter, never to the shard itself).
//
// Each shard keeps hit/miss/coalesce/eviction/cost counters — registered
// with shard labels in an obs.Registry when one is configured — and can run
// an LRU shadow cache of identical geometry that replays the same touches
// and installs, so the live cost savings of a cost-sensitive policy over
// plain LRU (the paper's headline metric) are measurable on a serving
// engine, not just in a simulator.
package engine

import (
	"fmt"
	"math/bits"
	"strconv"

	"costcache/internal/obs"
	"costcache/internal/obs/reqspan"
	"costcache/internal/replacement"
	"costcache/internal/resilience"
)

// Config describes an engine. Geometry is global: Sets is the total set
// count across all shards, so results are comparable (and, for deterministic
// streams, identical) across shard counts.
type Config struct {
	// Shards is the power-of-two shard count (0 means 1). Must not exceed
	// Sets: a set never spans shards.
	Shards int
	// Sets is the total number of sets across all shards, a power of two
	// (0 means 1024).
	Sets int
	// Ways is the set associativity (0 means 4).
	Ways int
	// Policy builds one replacement policy per shard. nil means LRU.
	Policy replacement.Factory
	// Registry, when non-nil, receives the per-shard counters under
	// engine_* names with a shard label (see docs/ENGINE.md).
	Registry *obs.Registry
	// Shadow enables a per-shard LRU shadow cache that replays the same
	// touches and installs, so Stats reports the aggregate cost plain LRU
	// would have paid for the same stream.
	Shadow bool
	// Tracer, when non-nil, samples requests into stage-attributed spans
	// (see internal/obs/reqspan). Unsampled requests pay one atomic add;
	// a nil Tracer pays a nil check per request.
	Tracer *reqspan.Tracer
	// Decisions, when non-nil, attaches the decision tracer to every shard
	// whose policy implements replacement.Observable: each reservation, ETD
	// detection and victim choice is recorded with the shard it happened on
	// and its stable cost-class tag, the stream report -explain joins across
	// runs. Events are recorded under the shard lock (one tracer mutex plus
	// a ring-slot copy per decision); nil keeps the zero-overhead path.
	Decisions *obs.Tracer
	// Resilience, when non-nil, switches GetOrLoad to the degraded-mode
	// load path: per-request deadlines, cost-aware retries, per-class
	// circuit breakers and serve-stale ghosts (see internal/resilience and
	// docs/ENGINE.md "Degraded-mode serving"). nil keeps the legacy inline
	// loader path, bit-identical with pre-resilience behavior.
	Resilience *resilience.Resilience
	// Namespace, when non-empty, adds an ns label to every engine_* series
	// this engine registers, so multiple tenant engines can share one
	// registry (the cacheserved layout) without colliding. Empty keeps the
	// exact historical series names, so single-engine manifests stay
	// diffable against old baselines.
	Namespace string
}

// Engine is a sharded, thread-safe cost-sensitive cache.
type Engine struct {
	shards    []*shard
	setMask   uint64
	shardMask uint64
	shardBits uint
	ways      int
	tracer    *reqspan.Tracer
	res       *resilience.Resilience

	// Degraded-mode counters (engine-wide: the resilient load path is not
	// a per-shard concern). Bare counters when no registry is configured.
	loadTimeouts *obs.Counter
	loadRetries  *obs.Counter
	shed         *obs.Counter
	staleServed  *obs.Counter
}

// Loader produces the value for a missing key along with the miss cost the
// engine charges and loads into the block (the predicted cost of missing
// this key again — latency, energy, bytes, any non-negative quantity).
type Loader func(key uint64) (value any, cost replacement.Cost, err error)

// LoaderPanic wraps a panic that escaped a Loader when it is re-raised in
// the coalesced waiters of the load. The leader goroutine re-panics with the
// original value; waiters panic with a *LoaderPanic carrying it.
type LoaderPanic struct{ Value any }

func (p *LoaderPanic) Error() string {
	return fmt.Sprintf("engine: coalesced loader panicked: %v", p.Value)
}

// New builds an engine. It panics on an invalid geometry (a programming
// error, matching cache.New).
func New(cfg Config) *Engine {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Sets == 0 {
		cfg.Sets = 1024
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.Shards < 0 || bits.OnesCount(uint(cfg.Shards)) != 1 {
		panic(fmt.Sprintf("engine: Shards %d must be a power of two", cfg.Shards))
	}
	if cfg.Sets < 0 || bits.OnesCount(uint(cfg.Sets)) != 1 {
		panic(fmt.Sprintf("engine: Sets %d must be a power of two", cfg.Sets))
	}
	if cfg.Shards > cfg.Sets {
		panic(fmt.Sprintf("engine: Shards %d exceeds Sets %d", cfg.Shards, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("engine: Ways %d must be positive", cfg.Ways))
	}
	if cfg.Policy == nil {
		cfg.Policy = func() replacement.Policy { return replacement.NewLRU() }
	}
	e := &Engine{
		setMask:   uint64(cfg.Sets - 1),
		shardMask: uint64(cfg.Shards - 1),
		shardBits: uint(bits.TrailingZeros(uint(cfg.Shards))),
		ways:      cfg.Ways,
		tracer:    cfg.Tracer,
		res:       cfg.Resilience,
	}
	// The degraded-mode series register only when the resilient path is
	// active, so un-configured runs keep their exact pre-resilience metric
	// catalog (and manifest snapshots stay diffable against old baselines).
	counter := func(name string) *obs.Counter {
		if cfg.Registry == nil || e.res == nil {
			return &obs.Counter{}
		}
		return cfg.Registry.Counter(nsLabel(cfg.Namespace, name))
	}
	e.loadTimeouts = counter("engine_load_timeouts")
	e.loadRetries = counter("engine_load_retries")
	e.shed = counter("engine_shed")
	e.staleServed = counter("engine_stale_served")
	ghosts := e.res != nil && e.res.ServeStale()
	localSets := cfg.Sets / cfg.Shards
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		s := newShard(i, localSets, cfg.Ways, cfg.Policy(), cfg.Registry, cfg.Namespace, cfg.Shadow, ghosts)
		if cfg.Decisions != nil {
			if ob, ok := s.policy.(replacement.Observable); ok {
				ob.SetObserver(cfg.Decisions.BindShard(s.policy.Name(), i))
			}
		}
		e.shards[i] = s
	}
	return e
}

// mix64 is the splitmix64 finalizer: a full-avalanche hash spreading keys
// over sets and shards regardless of their input distribution.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// place returns the shard holding key and the set index within it. The
// global set is derived from the key hash alone; the shard takes the low
// set bits, so placement commutes with the shard count.
func (e *Engine) place(key uint64) (*shard, int) {
	gs := mix64(key) & e.setMask
	return e.shards[gs&e.shardMask], int(gs >> e.shardBits)
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Capacity returns the total number of cacheable entries (sets × ways).
func (e *Engine) Capacity() int {
	return len(e.shards) * e.shards[0].sets * e.ways
}

// Get returns the cached value for key. A hit promotes the entry; a miss
// changes no replacement state (nothing is installed, so the policy never
// sees the reference).
//
// Get, Set and GetOrLoad share a tracing protocol: place the key, Begin a
// (usually nil) span, then Mark each stage boundary as the request crosses
// it and Finish after the shard lock is released, so span aggregation and
// emission never run under a shard mutex. The marks are contiguous — each
// closes the segment since the previous boundary — which is what makes the
// per-stage attribution sums tile the end-to-end latency exactly.
func (e *Engine) Get(key uint64) (any, bool) {
	s, set := e.place(key)
	sp := e.tracer.Begin(reqspan.OpGet, s.id, key)
	return e.doGet(s, set, key, sp)
}

// doGet is Get's body after placement and span lease — shared by Get and
// GetTraced so the local and remote-bound paths stay byte-identical.
func (e *Engine) doGet(s *shard, set int, key uint64, sp *reqspan.Span) (any, bool) {
	s.lock()
	sp.Mark(reqspan.StageLockWait)
	if w, _ := s.probe(set, key); w >= 0 {
		v := s.hit(set, w, key, sp)
		s.mu.Unlock()
		e.tracer.Finish(sp, reqspan.OutcomeHit)
		return v, true
	}
	s.misses.Inc()
	sp.Mark(reqspan.StageDecision)
	s.mu.Unlock()
	e.tracer.Finish(sp, reqspan.OutcomeMiss)
	return nil, false
}

// Set installs or refreshes key with the given value and predicted next-miss
// cost. Installing into a full set evicts the policy's victim.
func (e *Engine) Set(key uint64, value any, cost replacement.Cost) {
	s, set := e.place(key)
	sp := e.tracer.Begin(reqspan.OpSet, s.id, key)
	e.doSet(s, set, key, value, cost, sp)
}

// doSet is Set's body after placement and span lease — shared by Set and
// SetTraced.
func (e *Engine) doSet(s *shard, set int, key uint64, value any, cost replacement.Cost, sp *reqspan.Span) {
	s.lock()
	sp.Mark(reqspan.StageLockWait)
	w, free := s.probe(set, key)
	if w >= 0 {
		en := s.at(set, w)
		en.val, en.cost = value, cost
		s.hit(set, w, key, sp)
		s.mu.Unlock()
		e.tracer.Finish(sp, reqspan.OutcomeHit)
		return
	}
	s.misses.Inc()
	sp.Mark(reqspan.StageDecision)
	s.install(set, free, key, value, cost, sp)
	s.mu.Unlock()
	e.tracer.Finish(sp, reqspan.OutcomeMiss)
}

// GetOrLoad returns the cached value for key, or runs load to produce it.
// Concurrent calls for the same key coalesce: one goroutine (the leader)
// runs the loader while the others wait off-lock and share its value, error
// and single cost charge. A loader panic is re-raised in the leader (with
// the original value) and in every waiter (wrapped in *LoaderPanic); the
// shard itself stays healthy.
//
// With Config.Resilience set, the load path additionally honors per-request
// deadlines (ErrLoadTimeout), cost-aware retries, per-class circuit
// breakers (ErrShed) and serve-stale ghosts; callers that want to know
// whether a returned value is stale use GetOrLoadStale.
func (e *Engine) GetOrLoad(key uint64, load Loader) (any, error) {
	v, _, err := e.GetOrLoadStale(key, load)
	return v, err
}

// Invalidate removes key if cached (e.g. an upstream change notification).
// The policy hook fires either way so victim-directory state (the ETD) is
// purged too — including any serve-stale ghost, since an upstream change is
// exactly when a retained value stops being safe to serve. It reports
// whether a cached entry was removed.
func (e *Engine) Invalidate(key uint64) bool {
	s, set := e.place(key)
	s.lock()
	delete(s.ghosts, key)
	w, _ := s.probe(set, key)
	s.policy.Invalidate(set, w, key)
	if w >= 0 {
		en := s.at(set, w)
		en.valid, en.val = false, nil
	}
	s.mu.Unlock()
	return w >= 0
}

// Stats is a point-in-time sum of the per-shard counters.
type Stats struct {
	// Hits and Misses count lookups; Coalesced counts GetOrLoad calls that
	// waited on another goroutine's in-flight load (they are neither hits
	// nor misses, so Hits+Misses+Coalesced is the total operation count).
	// The JSON names are locked by the /debug/engine schema test.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts policy victimizations (not invalidations).
	Evictions int64 `json:"evictions"`
	// CostPaid is the aggregate miss cost charged on fills — the quantity
	// the paper's policies minimize, counted once per coalesced load.
	CostPaid int64 `json:"cost_paid"`
	// LockWaitNs is the total time goroutines spent blocked on shard locks.
	LockWaitNs int64 `json:"lock_wait_ns"`
	// ShadowCost is the aggregate cost the per-shard LRU shadows paid for
	// the same stream (0 when the shadow is disabled).
	ShadowCost int64 `json:"shadow_cost"`
	// LoadTimeouts counts requests (leaders and coalesced waiters) whose
	// deadline expired while a load was in flight; LoadRetries counts
	// backend retry attempts; Shed counts loads refused by an open circuit
	// breaker; StaleServed counts requests answered from a ghost value.
	// All stay zero without Config.Resilience.
	LoadTimeouts int64 `json:"load_timeouts"`
	LoadRetries  int64 `json:"load_retries"`
	Shed         int64 `json:"shed"`
	StaleServed  int64 `json:"stale_served"`
}

// Stats sums the shard counters. Under concurrent traffic the fields are
// individually atomic but not mutually consistent.
func (e *Engine) Stats() Stats {
	var t Stats
	for _, s := range e.shards {
		t.Hits += s.hits.Value()
		t.Misses += s.misses.Value()
		t.Coalesced += s.coalesced.Value()
		t.Evictions += s.evictions.Value()
		t.CostPaid += s.costPaid.Value()
		t.LockWaitNs += s.lockWait.Value()
		t.ShadowCost += s.shadow.cost.Load()
	}
	t.LoadTimeouts = e.loadTimeouts.Value()
	t.LoadRetries = e.loadRetries.Value()
	t.Shed = e.shed.Value()
	t.StaleServed = e.staleServed.Value()
	return t
}

// Sub returns the counter-wise difference s - prev (a window delta).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Coalesced:    s.Coalesced - prev.Coalesced,
		Evictions:    s.Evictions - prev.Evictions,
		CostPaid:     s.CostPaid - prev.CostPaid,
		LockWaitNs:   s.LockWaitNs - prev.LockWaitNs,
		ShadowCost:   s.ShadowCost - prev.ShadowCost,
		LoadTimeouts: s.LoadTimeouts - prev.LoadTimeouts,
		LoadRetries:  s.LoadRetries - prev.LoadRetries,
		Shed:         s.Shed - prev.Shed,
		StaleServed:  s.StaleServed - prev.StaleServed,
	}
}

// HitRate returns Hits/(Hits+Misses), or 0 for an idle engine. Coalesced
// waiters count toward neither side.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Savings returns the paper's relative-savings metric measured live against
// the LRU shadow: (ShadowCost-CostPaid)/ShadowCost, or 0 when the shadow is
// disabled or has paid nothing.
func (s Stats) Savings() float64 {
	if s.ShadowCost <= 0 {
		return 0
	}
	return float64(s.ShadowCost-s.CostPaid) / float64(s.ShadowCost)
}

// shardLabel renders the canonical label for shard i of namespace ns, shared
// by every engine_* series so identical shards yield identical series names.
// An empty ns renders no ns label, preserving the historical names.
func shardLabel(ns, base string, i int) string {
	if ns == "" {
		return obs.Name(base, "shard", strconv.Itoa(i))
	}
	return obs.Name(base, "ns", ns, "shard", strconv.Itoa(i))
}

// nsLabel renders an engine-wide series name for namespace ns (no shard
// label). An empty ns renders the bare base name.
func nsLabel(ns, base string) string {
	if ns == "" {
		return base
	}
	return obs.Name(base, "ns", ns)
}
