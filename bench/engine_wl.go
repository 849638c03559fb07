package main

import (
	"fmt"
	"runtime"
	"sync"

	"costcache/internal/engine"
	"costcache/internal/obs"
	"costcache/internal/replacement"
)

// The common serving geometry: what cachebench and cacheserved default to.
const (
	servingShards = 8
	servingSets   = 4096
	servingWays   = 4
	servingPolicy = "DCL"
)

// engineSpec describes an in-process engine workload.
type engineSpec struct {
	name  string
	keys  int
	zipfS float64 // 0 draws keys uniformly
	mix   opMix
	// observed builds the engine as users get it (Registry + LRU shadow);
	// otherwise it is bare.
	observed   bool
	sliceOps   int
	passSlices int
	warmOps    int
}

var engineHot = engineSpec{
	name: "engine-hot", keys: 32768, zipfS: 1.1, mix: opMix{100, 0, 0, 0},
	sliceOps: 1 << 19, passSlices: 4, warmOps: 1 << 18,
}

var engineChurn = engineSpec{
	name: "engine-churn", keys: 131072, mix: opMix{70, 10, 15, 5}, observed: true,
	sliceOps: 1 << 16, passSlices: 16, warmOps: 1 << 18,
}

// keyTables are the benchmark-generated inputs every request indexes by key
// rank: the key's miss cost and the values it may legitimately hold. Values
// are boxed once here so the loader and Set hand the engine ready interface
// values and the timed loop allocates nothing of its own.
type keyTables struct {
	base    uint64
	costs   []replacement.Cost
	backend []any // what the loader returns for the key
	setVals []any // value of the i-th Set op of the stream
}

func newKeyTables(seed uint64, keys, sets int) *keyTables {
	t := &keyTables{base: keyBase(seed)}
	t.costs = genCosts(seed, t.base, keys)
	t.backend = make([]any, keys)
	for k := range t.backend {
		t.backend[k] = mix(t.base+uint64(k)) >> 1 // top bit clear: never a Set value
	}
	t.setVals = make([]any, sets)
	for i := range t.setVals {
		t.setVals[i] = uint64(1)<<63 | uint64(i)
	}
	return t
}

// valueOK reports whether v is a value the read op o may return: the
// backend's value for the key or the most recent Set's.
func (t *keyTables) valueOK(v any, o *op) bool {
	return v == t.backend[o.rank] || (o.aux != noSet && v == t.setVals[o.aux])
}

// policyFactory returns the named policy's factory, wrapped in the timing
// decorator when newTrack is non-nil (one track per policy instance, i.e.
// per shard, so every track has a single writer at a time).
func policyFactory(name string, trackFor func() *track) replacement.Factory {
	f, ok := replacement.ByName(name)
	if !ok {
		panic("bench: unknown policy " + name)
	}
	if trackFor == nil {
		return f
	}
	return func() replacement.Policy { return &timedPolicy{Policy: f(), t: trackFor()} }
}

// timedPolicy records a span around every replacement hook.
type timedPolicy struct {
	replacement.Policy
	t *track
}

func (p *timedPolicy) Access(set int, tag uint64, hit bool) {
	h := p.t.begin(layerReplacement, spAccess)
	p.Policy.Access(set, tag, hit)
	p.t.end(h)
}

func (p *timedPolicy) Touch(set, way int) {
	h := p.t.begin(layerReplacement, spTouch)
	p.Policy.Touch(set, way)
	p.t.end(h)
}

func (p *timedPolicy) Victim(set int) int {
	h := p.t.begin(layerReplacement, spVictim)
	w := p.Policy.Victim(set)
	p.t.end(h)
	return w
}

func (p *timedPolicy) Fill(set, way int, tag uint64, cost replacement.Cost) {
	h := p.t.begin(layerReplacement, spFill)
	p.Policy.Fill(set, way, tag, cost)
	p.t.end(h)
}

func (p *timedPolicy) Invalidate(set, way int, tag uint64) {
	h := p.t.begin(layerReplacement, spInvalidateHook)
	p.Policy.Invalidate(set, way, tag)
	p.t.end(h)
}

// engineInst is an engine with the tables its requests index. t is the span
// track of the goroutine driving it (nil: recorder off).
type engineInst struct {
	tab    *keyTables
	e      *engine.Engine
	t      *track
	loader engine.Loader
	loads  int64 // loader runs
	looked int64 // ops that count as an engine lookup (all but Invalidate)
}

// engineConfig is the serving geometry with the given policy; observed adds
// what cachebench and cacheserved add (Registry + LRU shadow).
func engineConfig(policy replacement.Factory, observed bool) engine.Config {
	cfg := engine.Config{Shards: servingShards, Sets: servingSets, Ways: servingWays, Policy: policy}
	if observed {
		cfg.Registry = obs.NewRegistry()
		cfg.Shadow = true
	}
	return cfg
}

func newEngineInst(tab *keyTables, cfg engine.Config, t *track) *engineInst {
	in := &engineInst{tab: tab, e: engine.New(cfg), t: t}
	in.loader = func(key uint64) (any, replacement.Cost, error) {
		h := in.t.begin(layerBench, spLoader)
		r := key - tab.base
		in.loads++
		v, c := tab.backend[r], tab.costs[r]
		in.t.end(h)
		return v, c, nil
	}
	return in
}

// run executes ops in order and returns how many failed: an error, or a
// value that is neither the backend's nor the last Set's for its key.
func (in *engineInst) run(ops []op) (failed int64) {
	e, tab, t := in.e, in.tab, in.t
	for i := range ops {
		o := &ops[i]
		key := tab.base + uint64(o.rank)
		switch o.kind {
		case opGetOrLoad:
			loads := in.loads
			h := t.begin(layerEngine, spGetOrLoadHit)
			v, err := e.GetOrLoad(key, in.loader)
			if in.loads != loads {
				t.rename(h, spGetOrLoadMiss)
			}
			t.end(h)
			if err != nil || !tab.valueOK(v, o) {
				failed++
			}
		case opGet:
			h := t.begin(layerEngine, spGet)
			v, ok := e.Get(key)
			t.end(h)
			if ok && !tab.valueOK(v, o) {
				failed++
			}
		case opSet:
			h := t.begin(layerEngine, spSet)
			e.Set(key, tab.setVals[o.aux], tab.costs[o.rank])
			t.end(h)
		case opInvalidate:
			h := t.begin(layerEngine, spInvalidate)
			e.Invalidate(key)
			t.end(h)
			in.looked--
		}
	}
	in.looked += int64(len(ops))
	return failed
}

// runStub walks ops doing everything run does except calling the engine, so
// the generator's own cost is known and never charged to a layer.
func (in *engineInst) runStub(ops []op) (failed int64) {
	tab := in.tab
	for i := range ops {
		o := &ops[i]
		if o.kind <= opGet && !tab.valueOK(tab.backend[o.rank], o) {
			failed++
		}
	}
	return failed
}

func (in *engineInst) counts(ops int64) counts {
	st := in.e.Stats()
	return counts{Ops: ops, Lookups: st.Hits + st.Misses, Hits: st.Hits, Cost: st.CostPaid}
}

// engineRunner is an in-process engine workload: one goroutine walking one
// stream against one engine.
type engineRunner struct {
	spec engineSpec
	seed uint64

	tab  *keyTables
	warm []op
	ops  []op
	base uint64 // live heap before the engine existed
	in   *engineInst
	pos  int
	done int64 // ops run by slice()
}

func newEngineRunner(spec engineSpec, seed uint64) *engineRunner {
	return &engineRunner{spec: spec, seed: seed}
}

// genInputs draws the warm-up and timed streams and their tables.
func (r *engineRunner) genInputs() {
	d := newKeyDist(r.spec.keys, r.spec.zipfS)
	r.warm, _ = genOps(newRNG(r.seed, 1), d, opMix{100, 0, 0, 0}, r.spec.warmOps)
	var sets int
	r.ops, sets = genOps(newRNG(r.seed, 2), d, r.spec.mix, r.spec.sliceOps*r.spec.passSlices)
	r.tab = newKeyTables(r.seed, r.spec.keys, sets)
}

// build makes a warmed engine instance over the runner's inputs.
func (r *engineRunner) build(policy replacement.Factory, observed bool, t *track) *engineInst {
	in := newEngineInst(r.tab, engineConfig(policy, observed), nil)
	in.run(r.warm)
	in.t = t
	return in
}

func (r *engineRunner) setup() error {
	r.genInputs()
	r.base = heapLive()
	r.in = r.build(policyFactory(servingPolicy, nil), r.spec.observed, nil)
	r.pos, r.done = 0, 0
	return nil
}

func (r *engineRunner) teardown()        { r.in = nil }
func (r *engineRunner) heapBase() uint64 { return r.base }
func (r *engineRunner) sliceOps() int64  { return int64(r.spec.sliceOps) }
func (r *engineRunner) passSlices() int  { return r.spec.passSlices }
func (r *engineRunner) counts() counts   { return r.in.counts(r.done) }

func (r *engineRunner) slice() int64 {
	failed := r.in.run(r.ops[r.pos : r.pos+r.spec.sliceOps])
	r.pos = (r.pos + r.spec.sliceOps) % len(r.ops)
	r.done += int64(r.spec.sliceOps)
	return failed
}

// replayCounts warms a fresh bare engine under the given policy and returns
// its counts over ops: the in-process reference every serving workload's
// counted window is held against.
func replayCounts(tab *keyTables, warm, ops []op, policy string) counts {
	in := newEngineInst(tab, engineConfig(policyFactory(policy, nil), false), nil)
	in.run(warm)
	base := in.counts(0)
	in.run(ops)
	return in.counts(int64(len(ops))).sub(base)
}

func (r *engineRunner) reference(c *checker, live counts) int64 {
	again := replayCounts(r.tab, r.warm, r.ops, servingPolicy)
	c.expect(again == live, "counters-repeat", "counted window gave %+v live but %+v when replayed", live, again)
	return replayCounts(r.tab, r.warm, r.ops, "LRU").Cost
}

func (r *engineRunner) finalChecks(c *checker) {
	st := r.in.e.Stats()
	c.expect(st.Hits+st.Misses+st.Coalesced == r.in.looked, "lookups-add-up",
		"hits %d + misses %d + coalesced %d != %d lookups issued", st.Hits, st.Misses, st.Coalesced, r.in.looked)
	c.expect(st.Coalesced == 0, "single-goroutine", "%d coalesced loads with one goroutine", st.Coalesced)
}

// traceEngine produces the per-layer metrics of an in-process engine
// workload: an untraced baseline, the traced run, and the side probes.
func traceEngine(spec engineSpec, seed uint64, seconds float64, res *runResult, c *checker) error {
	m := res.Metrics
	r := newEngineRunner(spec, seed)
	if err := r.setup(); err != nil {
		return err
	}
	m.set("engine.bytes_per_entry", (float64(heapLive())-float64(r.base))/float64(r.in.e.Capacity()))

	// Untraced baseline and the generator's own cost.
	probeOps := spec.sliceOps / 4
	window := func(i int) []op {
		lo := (i * probeOps) % len(r.ops)
		return r.ops[lo : lo+probeOps]
	}
	var failed int64
	i := 0
	res0 := readResources()
	base := timeLoop(seconds*0.15, 5, probeOps, func() { failed += r.in.run(window(i)); i++ })
	res1 := readResources()
	attempted := int64(i * probeOps)
	gen := timeLoop(seconds*0.03, 5, probeOps, func() { failed += r.in.runStub(window(i)); i++ })
	m.setMedian("gen.ns_per_op", gen)
	m.setGC(res0, res1)

	// Traced run: same stream, fresh engine, hooks and calls recorded.
	cc := calibrateClock()
	t := newTrack(1 << 20)
	tin := r.build(policyFactory(servingPolicy, func() *track { return t }), spec.observed, t)
	tracedOps := probeOps / 2 // about 3 spans per op must fit the track
	table := &spanTable{}
	st0 := tin.e.Stats()
	var tracedN int64
	j := 0
	traced := timeLoop(seconds*0.15, 3, tracedOps, func() {
		t.reset()
		lo := (j * tracedOps) % len(r.ops)
		failed += tin.run(r.ops[lo : lo+tracedOps])
		table.add(aggregate(cc, t))
		tracedN += int64(tracedOps)
		j++
	})
	st := tin.e.Stats().Sub(st0)
	attempted += tracedN
	c.expect(table.dropped == 0, "spans-fit", "%d spans dropped by a full track", table.dropped)
	written, err := writeSpans(spanPath(spec.name), t)
	if err != nil {
		return err
	}

	untracedNs, tracedNs := median(base), median(traced)
	m.set("trace.overhead_pct", 100*(tracedNs-untracedNs)/untracedNs)
	m.set("trace.spans", float64(table.spans))
	m.set("trace.tiling_share", table.totalSelf()/(untracedNs*float64(tracedN)))
	engineLayerMetrics(m, table, tracedN)
	engineCounterMetrics(m, st)

	fmt.Printf("  traced %d ops, %d spans (%d written to %s); clock cost %.1f ns inside a span, %.1f ns per pair\n",
		tracedN, table.spans, written, spanPath(spec.name), cc.inside, cc.pair)
	table.print(tracedN, untracedNs)

	// Side probe: the same engine under nproc goroutines.
	scalingProbe(r, seconds*0.2, m)
	// Side probe: what the registry and the shadow cost on this stream.
	obsProbe(r, seconds*0.35, m)

	res.Attempted, res.Failed = attempted, failed
	flagNoisy(res, c, base)
	return nil
}

// engineCounterMetrics reports an engine's own counters.
func engineCounterMetrics(m metrics, st engine.Stats) {
	m.set("engine.hits", float64(st.Hits))
	m.set("engine.misses", float64(st.Misses))
	m.set("engine.coalesced", float64(st.Coalesced))
	m.set("engine.evictions", float64(st.Evictions))
	m.set("engine.cost_paid", float64(st.CostPaid))
}

// engineLayerMetrics derives the replacement.* and engine.* span metrics
// from a traced run's table over ops requests.
func engineLayerMetrics(m metrics, tab *spanTable, ops int64) {
	n := float64(ops)
	replacementMetrics(m, tab, ops)
	engineSelf := tab.layerSelf(layerEngine)
	m.set("engine.getorload_hit_ns", tab.get(layerEngine, spGetOrLoadHit).selfMean())
	m.set("engine.getorload_miss_ns", tab.get(layerEngine, spGetOrLoadMiss).selfMean())
	m.set("engine.get_ns", tab.get(layerEngine, spGet).selfMean())
	m.set("engine.set_ns", tab.get(layerEngine, spSet).selfMean())
	m.set("engine.invalidate_ns", tab.get(layerEngine, spInvalidate).selfMean())
	m.set("engine.self_ns_per_op", engineSelf/n)
}

// replacementMetrics derives the hook metrics from a traced run's table:
// mean time per hook kind, hooks per op, and the hooks' share of the time
// the traced layers were busy.
func replacementMetrics(m metrics, tab *spanTable, ops int64) {
	m.set("replacement.access_ns", tab.get(layerReplacement, spAccess).mean())
	m.set("replacement.touch_ns", tab.get(layerReplacement, spTouch).mean())
	m.set("replacement.victim_ns", tab.get(layerReplacement, spVictim).mean())
	m.set("replacement.fill_ns", tab.get(layerReplacement, spFill).mean())
	m.set("replacement.hooks_per_op", float64(tab.layerCount(layerReplacement))/float64(ops))
	share := 0.0
	if busy := tab.totalSelf() - tab.layerSelf(layerBench); busy > 0 {
		share = tab.layerSelf(layerReplacement) / busy
	}
	m.set("replacement.busy_share", share)
}

// scalingProbe drives one engine with GetOrLoads on the workload's key
// stream from one goroutine, then from nproc goroutines, and reports the
// throughput ratio and the lock wait the engine itself counted. On two cores
// the ratio is bimodal (see README): it is recorded so that a change can be
// reported as unresolved, never as unchanged.
func scalingProbe(r *engineRunner, budget float64, m metrics) {
	in := r.build(policyFactory(servingPolicy, nil), false, nil)
	n := runtime.GOMAXPROCS(0)
	per := len(r.warm) / n
	tab := r.tab
	loader := func(k uint64) (any, replacement.Cost, error) {
		return tab.backend[k-tab.base], tab.costs[k-tab.base], nil
	}
	loads := func(ops []op) {
		for i := range ops {
			if _, err := in.e.GetOrLoad(tab.base+uint64(ops[i].rank), loader); err != nil {
				panic(err) // the loader never fails
			}
		}
	}
	single := timeLoop(budget/2, 5, per, func() { loads(r.warm[:per]) })
	lw0 := in.e.Stats().LockWaitNs
	var multiOps int64
	multi := timeLoop(budget/2, 5, per*n, func() {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(part []op) {
				defer wg.Done()
				loads(part)
			}(r.warm[g*per : (g+1)*per])
		}
		wg.Wait()
		multiOps += int64(per * n)
	})
	s := median(single)
	var ratios []float64
	for _, ns := range multi {
		ratios = append(ratios, s/ns)
	}
	m.setMedian("engine.scaling_x", ratios)
	m.set("engine.scaling_iqr_pct", 100*spread(ratios))
	m.set("engine.lock_wait_ns_per_op", float64(in.e.Stats().LockWaitNs-lw0)/float64(multiOps))
}

// obsProbe times the workload's stream on engines built bare, with a
// Registry, and with Registry plus LRU shadow, interleaving the three so
// drift hits them alike, and measures the heap the shadow adds.
func obsProbe(r *engineRunner, budget float64, m metrics) {
	factory := policyFactory(servingPolicy, nil)
	regOnly := engineConfig(factory, false)
	regOnly.Registry = obs.NewRegistry()
	insts := []*engineInst{
		newEngineInst(r.tab, engineConfig(factory, false), nil),
		newEngineInst(r.tab, regOnly, nil),
		newEngineInst(r.tab, engineConfig(factory, true), nil),
	}
	for _, in := range insts {
		in.run(r.warm)
	}
	probeOps := r.spec.sliceOps / 4
	times := make([][]float64, len(insts))
	i := 0
	timeLoop(budget, 5, probeOps*len(insts), func() {
		lo := (i * probeOps) % len(r.ops)
		for k, in := range insts {
			t0 := now()
			in.run(r.ops[lo : lo+probeOps])
			times[k] = append(times[k], float64(now()-t0)/float64(probeOps))
		}
		i++
	})
	b, g, s := median(times[0]), median(times[1]), median(times[2])
	m.set("obs.registry_ns_per_op", g-b)
	m.set("obs.shadow_ns_per_op", s-g)
	m.set("obs.shadow_overhead_pct", 100*(s-g)/g)
	// The shadow's heap is what the shadowed engine holds beyond the
	// registry-only one after the same ops: drop them one at a time.
	h3 := heapLive()
	insts[2] = nil
	h2 := heapLive()
	insts[1] = nil
	h1 := heapLive()
	runtime.KeepAlive(insts) // or the collector frees all three before h3
	m.set("obs.shadow_heap_mb", (float64(h3-h2)-float64(h2-h1))/(1<<20))
}
