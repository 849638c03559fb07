package engine

import (
	"errors"
	"time"

	"costcache/internal/obs/reqspan"
	"costcache/internal/replacement"
)

// ErrLoadTimeout is returned by GetOrLoad/GetOrLoadStale when the
// resilience deadline expires before the key's in-flight load completes.
// The load itself keeps running in the background and still fills the
// cache, so a later request for the key usually hits.
var ErrLoadTimeout = errors.New("engine: load deadline exceeded")

// ErrShed is returned when the key's cost-class circuit breaker is open and
// no stale value is available: the load was refused outright to let the
// backend recover.
var ErrShed = errors.New("engine: load shed by open circuit breaker")

// LoadInfo reports how one GetOrLoad call was answered, so a caller serving
// the engine over a wire (internal/server) can relay the outcome — and the
// cost this exact call charged — without re-deriving it from counter deltas.
// Exactly one of Hit/Coalesced is set for a non-leader outcome; a leader
// load has neither.
type LoadInfo struct {
	// Hit reports the value was already cached.
	Hit bool
	// Coalesced reports this call waited on another goroutine's in-flight
	// load for the key (it charged nothing).
	Coalesced bool
	// Stale reports the value came from an evicted-but-retained ghost.
	Stale bool
	// Charged is the miss cost this call's load charged at install — 0 on
	// hits, coalesced waits, stale serves, and loads whose install lost a
	// race with a concurrent Set. Summing Charged over calls reproduces the
	// engine_cost_paid stream exactly (minus Set-path installs).
	Charged int64
}

// GetOrLoadStale is GetOrLoad plus the degraded-mode contract: stale
// reports that the value came from an evicted-but-retained ghost (served
// when the breaker is open or the deadline expires, charging zero cost).
// Without Config.Resilience, stale is always false and the behavior — down
// to the counter stream — is identical to GetOrLoad before resilience
// existed.
func (e *Engine) GetOrLoadStale(key uint64, load Loader) (value any, stale bool, err error) {
	v, info, err := e.GetOrLoadInfo(key, load)
	return v, info.Stale, err
}

// GetOrLoadInfo is GetOrLoadStale plus the full per-call outcome (see
// LoadInfo). The counter stream is identical to GetOrLoad/GetOrLoadStale.
func (e *Engine) GetOrLoadInfo(key uint64, load Loader) (value any, info LoadInfo, err error) {
	s, set := e.place(key)
	sp := e.tracer.Begin(reqspan.OpGetOrLoad, s.id, key)
	return e.doGetOrLoad(s, set, key, load, sp)
}

// doGetOrLoad is GetOrLoadInfo's body after placement and span lease —
// shared by GetOrLoadInfo and GetOrLoadInfoTraced so the local and
// remote-bound paths stay byte-identical.
func (e *Engine) doGetOrLoad(s *shard, set int, key uint64, load Loader, sp *reqspan.Span) (value any, info LoadInfo, err error) {
	s.lock()
	sp.Mark(reqspan.StageLockWait)
	if w, _ := s.probe(set, key); w >= 0 {
		v := s.hit(set, w, key, sp)
		s.mu.Unlock()
		e.tracer.Finish(sp, reqspan.OutcomeHit)
		return v, LoadInfo{Hit: true}, nil
	}
	if f, ok := s.flights[key]; ok {
		if f.done == nil {
			f.done = make(chan struct{}) // first waiter of an inline flight
		}
		s.coalesced.Inc()
		sp.Mark(reqspan.StageDecision)
		s.mu.Unlock()
		return e.waitFlight(s, key, f, sp)
	}
	if e.res == nil {
		return e.loadInline(s, set, key, load, sp)
	}
	return e.loadResilient(s, set, key, load, sp)
}

// waitFlight is the coalesced-waiter path: block on the leader's flight,
// bounded by the resilience deadline when one is configured. A waiter whose
// deadline expires detaches with ErrLoadTimeout (or a stale ghost) while
// the load runs on — it still fills the cache for everyone after.
func (e *Engine) waitFlight(s *shard, key uint64, f *flight, sp *reqspan.Span) (any, LoadInfo, error) {
	if e.res != nil && e.res.Deadline() > 0 {
		t := time.NewTimer(e.res.Deadline())
		select {
		case <-f.done:
			t.Stop()
		case <-t.C:
			e.loadTimeouts.Inc()
			sp.Mark(reqspan.StageCoalesce)
			if e.res.ServeStale() {
				if v, ok := s.ghostValue(key); ok {
					e.staleServed.Inc()
					e.tracer.Finish(sp, reqspan.OutcomeCoalesced)
					return v, LoadInfo{Coalesced: true, Stale: true}, nil
				}
			}
			e.tracer.Finish(sp, reqspan.OutcomeCoalesced)
			return nil, LoadInfo{Coalesced: true}, ErrLoadTimeout
		}
	} else {
		<-f.done
	}
	sp.Mark(reqspan.StageCoalesce)
	if f.panicked {
		e.tracer.Finish(sp, reqspan.OutcomeError)
		panic(&LoaderPanic{Value: f.pan})
	}
	e.tracer.Finish(sp, reqspan.OutcomeCoalesced)
	return f.val, LoadInfo{Coalesced: true}, f.err
}

// loadInline is the legacy leader path (no Resilience configured): run the
// loader on the calling goroutine, install, publish. Un-configured engines
// stay bit-identical with pre-resilience behavior. Entered holding the shard
// lock; the miss is not yet counted.
//
// An uncontended miss allocates nothing. The leader keeps the load's result
// in locals and the flight it registers is only a rendezvous: a waiter that
// finds it makes its done channel, and only then does the leader publish the
// result into it. A flight whose done is still nil once it is out of the
// table was never seen by another goroutine, so it goes back to the shard's
// spare slot for the next miss; one a waiter has seen is never reused.
func (e *Engine) loadInline(s *shard, set int, key uint64, load Loader, sp *reqspan.Span) (any, LoadInfo, error) {
	s.misses.Inc()
	f := s.spare
	if f != nil {
		s.spare = nil
	} else {
		f = new(flight)
	}
	s.addFlight(key, f)
	sp.Mark(reqspan.StageDecision)
	s.mu.Unlock()

	var (
		val      any
		cost     replacement.Cost
		err      error
		panicked bool
		pan      any
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked, pan = true, r
			}
		}()
		val, cost, err = load(key)
	}()
	sp.Mark(reqspan.StageLoad)

	s.lock()
	sp.Mark(reqspan.StageLockWait) // the leader's second acquisition, to install
	delete(s.flights, key)
	var charged int64
	if !panicked && err == nil {
		charged = s.settle(set, key, val, cost, sp)
	}
	done := f.done
	if done == nil {
		s.spare = f
	} else {
		f.val, f.err, f.panicked, f.pan = val, err, panicked, pan // what waitFlight reads
	}
	s.mu.Unlock()
	if done != nil {
		close(done)
	}
	if panicked {
		e.tracer.Finish(sp, reqspan.OutcomeError)
		panic(pan)
	}
	if err != nil {
		e.tracer.Finish(sp, reqspan.OutcomeError)
		return val, LoadInfo{}, err
	}
	e.tracer.Finish(sp, reqspan.OutcomeMiss)
	return val, LoadInfo{Charged: charged}, nil
}

// loadResilient is the degraded-mode leader path: consult the class's
// breaker, run the load (with its cost-scaled retry budget) on a background
// goroutine, and wait bounded by the deadline. Entered holding the shard
// lock; the miss is not yet counted.
func (e *Engine) loadResilient(s *shard, set int, key uint64, load Loader, sp *reqspan.Span) (any, LoadInfo, error) {
	// Predict the key's cost class before its loader has run: the
	// configured classifier, else the cost the key last charged (its ghost).
	class := e.res.Class(key)
	if class == 0 && !e.res.HasClassifier() && s.ghosts != nil {
		if g, ok := s.ghosts[key]; ok {
			class = g.cost
		}
	}

	if !e.res.Allow(class) {
		// Shed: the class's breaker is open. Still a miss (the request
		// found nothing cached); answer stale if a ghost is retained,
		// charging nothing, else fail fast so the backend can recover.
		s.misses.Inc()
		e.shed.Inc()
		sp.Mark(reqspan.StageDecision)
		var v any
		var ok bool
		if e.res.ServeStale() && s.ghosts != nil {
			if g, gok := s.ghosts[key]; gok {
				v, ok = g.val, true
			}
		}
		s.mu.Unlock()
		if ok {
			e.staleServed.Inc()
			e.tracer.Finish(sp, reqspan.OutcomeMiss)
			return v, LoadInfo{Stale: true}, nil
		}
		e.tracer.Finish(sp, reqspan.OutcomeError)
		return nil, LoadInfo{}, ErrShed
	}

	s.misses.Inc()
	// The leader itself waits on done and runLoad owns the flight, so the
	// channel is made up front and the flight is never recycled.
	f := &flight{done: make(chan struct{})}
	s.addFlight(key, f)
	sp.Mark(reqspan.StageDecision)
	s.mu.Unlock()

	go e.runLoad(s, set, key, class, f, load)

	if dl := e.res.Deadline(); dl > 0 {
		t := time.NewTimer(dl)
		select {
		case <-f.done:
			t.Stop()
		case <-t.C:
			// The leader detaches; runLoad owns the flight and will still
			// install and wake the remaining waiters.
			e.loadTimeouts.Inc()
			sp.Mark(reqspan.StageLoad)
			if e.res.ServeStale() {
				if v, ok := s.ghostValue(key); ok {
					e.staleServed.Inc()
					e.tracer.Finish(sp, reqspan.OutcomeMiss)
					return v, LoadInfo{Stale: true}, nil
				}
			}
			e.tracer.Finish(sp, reqspan.OutcomeMiss)
			return nil, LoadInfo{}, ErrLoadTimeout
		}
	} else {
		<-f.done
	}
	sp.Mark(reqspan.StageLoad)
	if f.panicked {
		e.tracer.Finish(sp, reqspan.OutcomeError)
		panic(f.pan)
	}
	if f.err != nil {
		e.tracer.Finish(sp, reqspan.OutcomeError)
		return f.val, LoadInfo{}, f.err
	}
	sp.AddCost(f.charged)
	e.tracer.Finish(sp, reqspan.OutcomeMiss)
	return f.val, LoadInfo{Charged: f.charged}, nil
}

// runLoad executes one flight's load attempts on a goroutine of its own —
// the decoupling that lets leaders and waiters time out without killing the
// load. It retries per the class's budget (stopping early if the class's
// breaker trips mid-flight), reports every outcome to the breaker, installs
// on success and closes the flight.
func (e *Engine) runLoad(s *shard, set int, key uint64, class replacement.Cost, f *flight, load Loader) {
	attempts := 1 + e.res.Budget(class)
	for a := 0; a < attempts; a++ {
		if a > 0 {
			e.loadRetries.Inc()
			if d := e.res.Backoff(key, a); d > 0 {
				time.Sleep(d)
			}
		}
		f.val, f.cost, f.err = nil, 0, nil
		func() {
			defer func() {
				if r := recover(); r != nil {
					f.panicked, f.pan = true, r
				}
			}()
			f.val, f.cost, f.err = load(key)
		}()
		if f.panicked {
			break // a panic is not a backend outcome; re-raised in the leader
		}
		e.res.Report(class, f.err == nil)
		if f.err == nil || e.res.Tripped(class) {
			break
		}
	}
	s.lock()
	delete(s.flights, key)
	if !f.panicked && f.err == nil {
		f.charged = s.settle(set, key, f.val, f.cost, nil)
	}
	s.mu.Unlock()
	close(f.done)
}
