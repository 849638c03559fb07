package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"costcache/internal/obs"
	"costcache/internal/replacement"
	"costcache/internal/resilience"
)

func dclFactory() replacement.Policy { return replacement.NewDCL() }

// observedEngine is the engine as users get it: DCL, Registry, LRU shadow.
func observedEngine(shards, sets, ways int) *Engine {
	return New(Config{Shards: shards, Sets: sets, Ways: ways, Policy: dclFactory,
		Registry: obs.NewRegistry(), Shadow: true})
}

// TestHotPathAllocs is the allocation contract of docs/ENGINE.md: on one
// goroutine, with registry and shadow on, no engine op allocates — not even a
// GetOrLoad miss that evicts.
func TestHotPathAllocs(t *testing.T) {
	e := observedEngine(2, 16, 4)
	var val any = "v"
	load := constLoader(val, 3)
	for k := uint64(0); k < 1024; k++ { // every set full: each install evicts
		if _, err := e.GetOrLoad(k, load); err != nil {
			t.Fatal(err)
		}
	}
	const hot = 1 << 40
	fresh := uint64(1 << 20) // keys no one has seen
	for _, tc := range []struct {
		name      string
		hit, miss bool // what every run of op must be (neither: not a lookup)
		op        func()
	}{
		{"GetOrLoad hit", true, false, func() { e.GetOrLoad(hot, load) }},
		{"GetOrLoad miss", false, true, func() { fresh++; e.GetOrLoad(fresh, load) }},
		{"Get", true, false, func() { e.Get(hot) }},
		{"Set refresh", true, false, func() { e.Set(hot, val, 5) }},
		{"Set install", false, true, func() { fresh++; e.Set(fresh, val, 2) }},
		{"Invalidate", false, false, func() { e.Invalidate(fresh); e.Invalidate(fresh) }}, // resident, then absent
	} {
		e.Set(hot, val, 2) // the miss cases churn it out
		before := e.Stats()
		if allocs := testing.AllocsPerRun(500, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f per op, want 0", tc.name, allocs)
		}
		d := e.Stats().Sub(before)
		if (d.Hits > 0) != tc.hit || (d.Misses > 0) != tc.miss || d.Evictions != d.Misses {
			t.Errorf("%s ran as %d hits, %d misses, %d evictions: not the path it names",
				tc.name, d.Hits, d.Misses, d.Evictions)
		}
	}
}

// TestChurnKeepsStateBounded pushes 10⁶ distinct keys through a shadowed
// engine: what it holds must stop growing once the cache is full (the
// shadow's per-key cost map used to grow with key cardinality), and no flight
// or goroutine may be left behind.
func TestChurnKeepsStateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	goroutines := runtime.NumGoroutine()
	empty := heap()
	e := observedEngine(4, 1024, 4)
	var val any = "v"
	load := constLoader(val, 3)
	churn := func(from, to uint64) {
		for k := from; k < to; k++ {
			switch k % 8 {
			case 0:
				e.Set(k, val, 2)
			case 1:
				e.Invalidate(k - 1)
			default:
				if _, err := e.GetOrLoad(k, load); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	churn(0, 100_000)
	early := heap() - empty
	churn(100_000, 1_000_000)
	late := heap() - empty
	if float64(late) > 1.25*float64(early) {
		t.Errorf("engine holds %d B after 10⁶ keys but %d B after 10⁵: state grows with key cardinality", late, early)
	}
	for _, s := range e.shards {
		if n := len(s.flights); n != 0 {
			t.Errorf("shard %d: %d flights left in the table", s.id, n)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines, %d before the soak", n, goroutines)
	}
	runtime.KeepAlive(e)
}

// TestFlightChannelIsLazyAndRecycled pins the inline miss path's flight
// protocol from the inside: an uncontended miss makes no channel and parks
// its flight for the next miss; a waiter arriving mid-load makes the channel,
// gets the leader's result through it, and that flight is never reused.
func TestFlightChannelIsLazyAndRecycled(t *testing.T) {
	e := New(Config{Shards: 1, Sets: 8, Ways: 2, Policy: lruFactory})
	s := e.shards[0]
	inFlight := func(key uint64) *flight { // what a waiter would find
		s.lock()
		defer s.mu.Unlock()
		return s.flights[key]
	}

	// Uncontended: the loader (which runs off-lock) sees its own flight.
	var first *flight
	if _, err := e.GetOrLoad(1, func(k uint64) (any, replacement.Cost, error) {
		first = inFlight(k)
		return "one", 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.done != nil {
		t.Fatalf("uncontended flight = %+v, want one without a channel", first)
	}
	if s.spare != first {
		t.Fatal("unseen flight was not parked as the shard's spare")
	}
	if _, err := e.GetOrLoad(2, func(k uint64) (any, replacement.Cost, error) {
		if f := inFlight(k); f != first {
			t.Errorf("second miss flies %p, want the recycled %p", f, first)
		}
		return "two", 1, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Contended: a waiter joins while the leader's loader is parked.
	boom := errors.New("backend down")
	started, gate := make(chan struct{}), make(chan struct{})
	type result struct {
		v   any
		err error
	}
	leader, waiter := make(chan result, 1), make(chan result, 1)
	go func() {
		v, err := e.GetOrLoad(3, func(uint64) (any, replacement.Cost, error) {
			close(started)
			<-gate
			return "partial", 0, boom
		})
		leader <- result{v, err}
	}()
	<-started
	if f := inFlight(3); f != first || f.done != nil {
		t.Fatalf("leader flies %+v before any waiter, want the spare without a channel", f)
	}
	go func() {
		v, err := e.GetOrLoad(3, constLoader("never runs", 1))
		waiter <- result{v, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	if inFlight(3).done == nil {
		t.Fatal("a coalesced waiter left the flight without a channel")
	}
	close(gate)
	for _, r := range []result{<-leader, <-waiter} {
		if r.v != "partial" || !errors.Is(r.err, boom) {
			t.Fatalf("got (%v, %v), want the leader's (partial, %v)", r.v, r.err, boom)
		}
	}
	if s.spare != nil {
		t.Fatal("a flight a waiter has seen was parked for reuse")
	}
}

// TestHammerRecycledFlights runs 32 goroutines over 64 keys of an 8-entry
// engine with a yielding loader (under -race in CI): misses, coalesced waits
// and flight recycling interleave constantly, and a waiter handed another
// load's flight would return another key's value.
func TestHammerRecycledFlights(t *testing.T) {
	e := New(Config{Shards: 1, Sets: 4, Ways: 2, Policy: lruFactory, Shadow: true})
	vals := make([]any, 64)
	for k := range vals {
		vals[k] = k
	}
	load := func(key uint64) (any, replacement.Cost, error) {
		runtime.Gosched()
		return vals[key], loaderCost(key), nil
	}
	const goroutines, opsEach = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := uint64((g*7 + i*13) % len(vals))
				if i%16 == 15 {
					e.Invalidate(key)
					continue
				}
				if v, err := e.GetOrLoad(key, load); err != nil || v != vals[key] {
					t.Errorf("GetOrLoad(%d) = %v, %v", key, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if total := st.Hits + st.Misses + st.Coalesced; total != goroutines*(opsEach-opsEach/16) {
		t.Fatalf("hits+misses+coalesced = %d, want %d (%+v)", total, goroutines*(opsEach-opsEach/16), st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no load ever coalesced: the hammer exercised nothing (%+v)", st)
	}
	if n := len(e.shards[0].flights); n != 0 {
		t.Fatalf("%d flights left in the table", n)
	}
}

// TestLoadOverwritesConcurrentSet pins what a load leaves behind when a Set
// installed its key while the loader ran, on both load paths: the loader's
// value and the loader's cost, written together, nothing charged for the
// load. The Set is issued from inside the loader — which runs off-lock — so
// the interleaving is exact. The entry's cost is then read back the two ways
// it is used: as what the shadow charges when it misses the key, and as the
// class of the ghost the entry leaves when evicted.
func TestLoadOverwritesConcurrentSet(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		cfg := Config{Shards: 1, Sets: 1, Ways: 2, Policy: lruFactory, Shadow: true}
		if resilient {
			cfg.Resilience = resilience.New(resilience.Config{ServeStale: true}, nil)
		}
		e := New(cfg)
		v, info, err := e.GetOrLoadInfo(11, func(k uint64) (any, replacement.Cost, error) {
			e.Set(k, "from-set", 4)
			return "from-loader", 3, nil
		})
		if err != nil || v != "from-loader" || info.Charged != 0 {
			t.Fatalf("resilient=%v: load = (%v, %+v, %v), want from-loader charging 0", resilient, v, info, err)
		}
		if st := e.Stats(); st.CostPaid != 4 || st.ShadowCost != 4 {
			t.Fatalf("resilient=%v: paid %d, shadow %d, want the Set's 4 only", resilient, st.CostPaid, st.ShadowCost)
		}
		// Age 11 out of the shadow but not the engine: 12 leaves the engine by
		// Invalidate, which the shadow does not see, so 13 takes a free way in
		// the engine and 11's place in the shadow.
		e.Set(12, "x", 1)
		e.Invalidate(12)
		e.Set(13, "y", 1)
		if v, ok := e.Get(11); !ok || v != "from-loader" {
			t.Fatalf("resilient=%v: Get(11) = %v, %v, want from-loader", resilient, v, ok)
		}
		if st := e.Stats(); st.ShadowCost != 4+1+1+3 {
			t.Fatalf("resilient=%v: shadow paid %d, want 9: its miss on 11 costs the loader's 3",
				resilient, st.ShadowCost)
		}
		if resilient {
			e.Set(14, "z", 1) // evicts 13 (LRU), then 11
			e.Set(15, "z", 1)
			if g, ok := e.shards[0].ghosts[11]; !ok || g.val != "from-loader" || g.cost != 3 {
				t.Fatalf("ghost of 11 = %+v, %v, want from-loader at cost 3", g, ok)
			}
		}
	}
}
