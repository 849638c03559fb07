package main

import (
	"fmt"
	"runtime"
)

// counts are the cache-behaviour counters a workload exposes, cumulative
// since its set-up finished warming.
type counts struct {
	Ops     int64 // requests (or simulated references) completed
	Lookups int64 // cache lookups: engine hits+misses, or simulated L2 accesses
	Hits    int64
	Cost    int64 // aggregate miss cost paid
}

func (c counts) sub(p counts) counts {
	return counts{c.Ops - p.Ops, c.Lookups - p.Lookups, c.Hits - p.Hits, c.Cost - p.Cost}
}

// runner is one workload as the measuring harness sees it.
//
// A run walks a pre-materialised op stream cyclically in slices of a fixed
// op count. The first passSlices() slices cover the stream exactly once:
// that is the counted window, over which the count-based metrics are taken
// and which reference() replays in-process — once through the same policy,
// to check the counters repeat, and once through LRU on the same geometry,
// for the cost the paper's policies are compared against. Counts taken this
// way are exact functions of the seed; timings are medians over all slices.
type runner interface {
	// setup builds the program's structures (engine, server, traces),
	// generates the inputs and warms the cache. It is timed as setup_s and
	// may be called again after teardown.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// heapBase is the live heap measured inside setup after the benchmark's
	// own inputs existed and before any program structure did.
	heapBase() uint64
	// slice runs the next sliceOps() ops and returns how many failed.
	slice() (failed int64)
	sliceOps() int64
	passSlices() int
	counts() counts
	// reference replays the counted window in-process, records its checks
	// against the live counts and returns the LRU baseline cost.
	reference(c *checker, live counts) (lruCost int64)
	// finalChecks records the workload's end-of-run output checks.
	finalChecks(c *checker)
}

// setupRepeats is how many times a run sets up: setup_s is their median, as
// the run contract asks (a set-up is 0.1 to 0.2 s, mostly page faults, and the
// first one in a process ran up to 27 % slower than the median of nine).
const setupRepeats = 9

// noisySpread is the slice IQR/median above which a run flags itself noisy.
const noisySpread = 0.15

// timedRun is the outcome of the slice loop.
type timedRun struct {
	sliceSeconds []float64 // wall time of each timed slice
	sliceCPU     []float64 // process CPU seconds spent during each
	ops          int64     // ops in the timed slices
	failed       int64     // including the discarded first slice
	attempted    int64
	res0, res1   resources
	pass         counts // counts over the counted window
	passOK       bool
}

// runSlices runs one discarded slice, then timed slices until seconds have
// passed and the counted window is complete.
func runSlices(r runner, seconds float64) *timedRun {
	t := &timedRun{}
	base := r.counts()
	runtime.GC()
	done := 0
	step := func() float64 {
		t0, c0 := now(), cpuSeconds()
		t.failed += r.slice()
		dt := float64(now()-t0) / 1e9
		t.sliceCPU = append(t.sliceCPU, cpuSeconds()-c0)
		t.attempted += r.sliceOps()
		done++
		if done == r.passSlices() {
			t.pass = r.counts().sub(base)
			t.passOK = true
		}
		return dt
	}
	step() // lazy set-up and cold caches are not what a slice measures
	t.sliceCPU = t.sliceCPU[:0]
	t.res0 = readResources()
	elapsed := 0.0
	for elapsed < seconds || !t.passOK {
		dt := step()
		elapsed += dt
		t.sliceSeconds = append(t.sliceSeconds, dt)
		t.ops += r.sliceOps()
	}
	t.res1 = readResources()
	return t
}

// timeLoop is the slice loop of the traced runs' baselines and probes: it runs
// step (which performs ops operations) until budget seconds have passed, at
// least minSlices times, and returns the per-op times in ns.
func timeLoop(budget float64, minSlices int, ops int, step func()) []float64 {
	var perOp []float64
	elapsed := 0.0
	for elapsed < budget || len(perOp) < minSlices {
		t0 := now()
		step()
		dt := float64(now() - t0)
		elapsed += dt / 1e9
		perOp = append(perOp, dt/float64(ops))
	}
	return perOp
}

// flagNoisy marks the run noisy when its slice times spread too far.
func flagNoisy(res *runResult, c *checker, sliceTimes []float64) {
	if sp := spread(sliceTimes); sp > noisySpread {
		res.Noisy = true
		c.warn("slice times spread %.1f%% of their median (over %.0f%%): a noisy run", 100*sp, 100*noisySpread)
	}
}

// repeatSetup sets r up setupRepeats times, tearing down all but the last,
// and returns the set-up times.
func repeatSetup(r runner) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			r.teardown()
		}
		t0 := now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		times = append(times, float64(now()-t0)/1e9)
	}
	return times, nil
}

// measure produces the end-to-end metrics of one workload. The span
// recorder is off for all of it.
func measure(r runner, seconds float64, res *runResult, c *checker) error {
	setups, err := repeatSetup(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer r.teardown()
	t := runSlices(r, seconds)
	heap := heapLive()
	lruCost := r.reference(c, t.pass)
	r.finalChecks(c)

	m := res.Metrics
	m.setMedian("setup_s", setups)
	var rates, cpus []float64
	for i, s := range t.sliceSeconds {
		rates = append(rates, float64(r.sliceOps())/s)
		cpus = append(cpus, t.sliceCPU[i]*1e6/float64(r.sliceOps()))
	}
	m.setMedian("ops_per_s", rates)
	m.setMedian("cpu_us_per_op", cpus)
	ops := float64(t.ops)
	m.set("allocs_per_op", float64(t.res1.mallocs-t.res0.mallocs)/ops)
	m.set("alloc_bytes_per_op", float64(t.res1.allocBytes-t.res0.allocBytes)/ops)
	m.set("heap_mb", (float64(heap)-float64(r.heapBase()))/(1<<20))
	m.set("hit_pct", 100*float64(t.pass.Hits)/float64(t.pass.Lookups))
	m.set("cost_per_op", float64(t.pass.Cost)/float64(t.pass.Ops))
	m.set("cost_saved_pct", 100*float64(lruCost-t.pass.Cost)/float64(lruCost))

	res.Attempted, res.Failed = t.attempted, t.failed
	flagNoisy(res, c, t.sliceSeconds)
	return nil
}
