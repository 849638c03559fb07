package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"costcache/internal/cache"
	"costcache/internal/cost"
	"costcache/internal/costsim"
	"costcache/internal/numasim"
	"costcache/internal/obs"
	"costcache/internal/replacement"
	"costcache/internal/trace"
	"costcache/internal/workload"
)

const simPaperName = "sim-paper"

// The paper path's cost assignment: ratio r=8, random mapping calibrated to
// a 0.2 high-cost access fraction, and first-touch placement.
var simRatio = costsim.Ratio{Low: 1, High: 8, Label: "r=8"}

const simHAF = 0.2

// simMappingSeed fixes which blocks the random mapping makes expensive, at
// the seed cmd/paper uses for the same sweep. The benchmark seed moves the
// trace generators only: across ten seeds the pooled savings then spread 1.7
// to 2.6 % of their median, against 8.6 % when the mapping moves with the seed.
const simMappingSeed = 42

// simPolicies are the paper's five algorithms in its order, LRU first: the
// LRU cell of each (trace, mapping) is the baseline of the four after it.
var simPolicies = []string{"LRU", "GD", "BCL", "DCL", "ACL"}

const numaClockMHz = 500

//go:embed golden/*.json
var goldenFS embed.FS

// goldenDir is where -update-golden writes, relative to the checkout root.
var goldenDir = filepath.Join("bench", "golden")

func goldenName(seed uint64) string { return fmt.Sprintf("sim-paper.seed%d.json", seed) }

// simCell is one costsim.Run of the fixed cell list.
type simCell struct {
	Trace   string `json:"trace"`
	Mapping string `json:"mapping"`
	Policy  string `json:"policy"`
	view    []trace.SampleRef
	src     cost.Source
}

// simPass is every simulated statistic one pass over the cell list yields.
// It is compared field for field (as canonical JSON) between passes and, for
// the golden seeds, with the checked-in file.
type simPass struct {
	Cells []simCellResult  `json:"cells"`
	Numa  []numasim.Result `json:"numasim"`
}

type simCellResult struct {
	simCell
	Result costsim.Result `json:"result"`
}

// simRunner is the paper path: trace-driven costsim cells and two
// execution-driven numasim runs, one goroutine, op = one simulated reference.
type simRunner struct {
	seed uint64
	base uint64

	cells    []simCell
	prog     *workload.Program
	genRefs  int     // references generated in set-up
	genSecs  float64 // time spent generating them
	refs     int64   // simulated references per pass
	first    []byte  // canonical JSON of the first pass
	firstRes *simPass
	passes   int
	cellNs   [][]float64 // per pass, per cell: host ns
	numaNs   [][]float64 // per pass, per numasim run: host ns
	t        *track
}

func newSimRunner(seed uint64) *simRunner { return &simRunner{seed: seed} }

// simGenerators are the traces of the paper path: the four Table 1
// benchmarks at quick scale. The first one is also run as a numasim program.
var simGenerators = func() []workload.Generator {
	gens := workload.Defaults()
	for i, g := range gens {
		gens[i] = workload.Quick(g)
	}
	return gens
}

// seeded returns g with its generator seed derived from the benchmark seed.
func seeded(g workload.Generator, seed uint64, i int) workload.Generator {
	s := int64(mix(seed+uint64(i)*0x51) >> 1)
	switch w := g.(type) {
	case workload.Barnes:
		w.Seed = s
		return w
	case workload.LU:
		w.Seed = s
		return w
	case workload.Ocean:
		w.Seed = s
		return w
	case workload.Raytrace:
		w.Seed = s
		return w
	}
	panic("bench: unseeded generator " + g.Name())
}

func (r *simRunner) setup() error {
	r.base = heapLive() // the traces are the program's own structures
	r.cells, r.genRefs, r.genSecs, r.refs = nil, 0, 0, 0
	for i, g := range simGenerators() {
		g = seeded(g, r.seed, i)
		t0 := now()
		tr := g.Generate()
		r.genSecs += float64(now()-t0) / 1e9
		r.genRefs += tr.Len()
		view := tr.SampleView(0)
		homes := workload.FirstTouchHomes(tr, workload.BlockBytes)
		srcs := []struct {
			name string
			src  cost.Source
		}{
			{"random", costsim.CalibratedRandom(view, workload.BlockBytes, simHAF, simRatio, simMappingSeed)},
			{"first-touch", cost.FirstTouch{Home: workload.HomeFunc(homes, 0), Proc: 0, Low: simRatio.Low, High: simRatio.High}},
		}
		for _, m := range srcs {
			for _, p := range simPolicies {
				r.cells = append(r.cells, simCell{Trace: g.Name(), Mapping: m.name, Policy: p, view: view, src: m.src})
				r.refs += int64(len(view))
			}
		}
		if i == 0 {
			prog, ok := workload.ProgramOf(g)
			if !ok {
				return fmt.Errorf("%s has no program form", g.Name())
			}
			r.prog = prog
			r.refs += 2 * int64(prog.TotalRefs())
		}
	}
	r.first, r.firstRes, r.passes, r.cellNs, r.numaNs = nil, nil, 0, nil, nil
	return nil
}

func (r *simRunner) teardown()        { r.cells, r.prog = nil, nil }
func (r *simRunner) heapBase() uint64 { return r.base }
func (r *simRunner) sliceOps() int64  { return r.refs }
func (r *simRunner) passSlices() int  { return 1 }

// pass runs the cell list once. Cells after index traced (all, when the
// track is nil) run with plain policies.
func (r *simRunner) pass(cells []simCell, numa bool) (*simPass, []float64, []float64) {
	out := &simPass{}
	var cellNs, numaNs []float64
	for _, c := range cells {
		var trackFor func() *track
		if r.t != nil {
			trackFor = func() *track { return r.t }
		}
		p := policyFactory(c.Policy, trackFor)()
		t0 := now()
		h := r.t.begin(layerCostsim, spCell)
		res := costsim.Run(c.view, costsim.Default(), p, c.src)
		r.t.end(h)
		cellNs = append(cellNs, float64(now()-t0))
		out.Cells = append(out.Cells, simCellResult{simCell: c, Result: res})
	}
	if numa {
		for _, p := range []string{"LRU", "DCL"} {
			cfg := numasim.DefaultConfig(policyFactory(p, nil))
			cfg.ClockMHz = numaClockMHz
			t0 := now()
			h := r.t.begin(layerNumasim, spNumaRun)
			res := numasim.Run(r.prog, cfg)
			r.t.end(h)
			numaNs = append(numaNs, float64(now()-t0))
			out.Numa = append(out.Numa, res)
		}
	}
	return out, cellNs, numaNs
}

// slice is one pass; a pass whose statistics differ from the first pass's in
// any field counts every one of its references as failed.
func (r *simRunner) slice() int64 {
	res, cellNs, numaNs := r.pass(r.cells, true)
	r.passes++
	r.cellNs = append(r.cellNs, cellNs)
	r.numaNs = append(r.numaNs, numaNs)
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of integers and finite floats
	}
	if r.first == nil {
		r.first, r.firstRes = b, res
		return 0
	}
	if !bytes.Equal(b, r.first) {
		return r.refs
	}
	return 0
}

// counts folds the first pass's statistics, times the passes run: lookups
// and hits are the simulated L2's over every costsim cell, ops and cost those
// of the four cost-sensitive policies' cells (LRU's cells are the baseline).
func (r *simRunner) counts() counts {
	var c counts
	if r.firstRes == nil {
		return c
	}
	for _, cell := range r.firstRes.Cells {
		c.Lookups += cell.Result.L2.Accesses
		c.Hits += cell.Result.L2.Hits
		if cell.Policy != "LRU" {
			c.Ops += int64(len(cell.view))
			c.Cost += cell.Result.L2.AggCost
		}
	}
	n := int64(r.passes)
	return counts{c.Ops * n, c.Lookups * n, c.Hits * n, c.Cost * n}
}

// reference checks the goldens and returns the LRU baseline: each LRU cell's
// cost once per cost-sensitive policy compared against it.
func (r *simRunner) reference(c *checker, _ counts) int64 {
	var lru int64
	for _, cell := range r.firstRes.Cells {
		if cell.Policy == "LRU" {
			lru += cell.Result.L2.AggCost * int64(len(simPolicies)-1)
		}
	}
	c.expect(r.passes >= 2, "ran-twice", "only %d pass: determinism not checked", r.passes)
	want, err := goldenFS.ReadFile("golden/" + goldenName(r.seed))
	if err != nil {
		return lru // not a golden seed: run-twice determinism is the check
	}
	got := canonicalJSON(r.firstRes)
	c.expect(bytes.Equal(got, want), "golden", "simulated statistics differ from bench/golden/%s: %s",
		goldenName(r.seed), firstDiff(got, want))
	return lru
}

func (r *simRunner) finalChecks(c *checker) {
	for _, n := range r.firstRes.Numa {
		c.expect(!n.Interrupted && n.Refs == int64(r.prog.TotalRefs()), "numasim-complete",
			"numasim %s simulated %d of %d references", n.Policy, n.Refs, r.prog.TotalRefs())
	}
}

func canonicalJSON(p *simPass) []byte {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// firstDiff names the first line on which two canonical documents differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %s, want %s", i+1, bytes.TrimSpace(g[i]), bytes.TrimSpace(w[i]))
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// writeGolden records the first pass as the golden file of the seed.
func (r *simRunner) writeGolden() error {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, goldenName(r.seed)), canonicalJSON(r.firstRes), 0o644)
}

// nullPolicy is the cheapest legal replacement policy: it times the cache
// model itself.
type nullPolicy struct{}

func (nullPolicy) Name() string                            { return "null" }
func (nullPolicy) Reset(sets, ways int)                    {}
func (nullPolicy) Access(set int, tag uint64, hit bool)    {}
func (nullPolicy) Touch(set, way int)                      {}
func (nullPolicy) Victim(set int) int                      { return 0 }
func (nullPolicy) Fill(int, int, uint64, replacement.Cost) {}
func (nullPolicy) Invalidate(set, way int, tag uint64)     {}

// driveCache times cache.Cache.Access under p on a fixed address stream:
// 64 sets of the given associativity, uniform blocks over twice the
// capacity, the serving cost mapping. It returns ns per reference.
func driveCache(p replacement.Policy, ways int, addrs []uint64, seed uint64) float64 {
	c := cache.New(cache.Config{
		Name: "probe", SizeBytes: 64 * ways * workload.BlockBytes, Ways: ways, BlockBytes: workload.BlockBytes,
		Policy: p, Cost: cost.Random{Low: costLow, High: costHigh, Fraction: costHAF, Seed: seed},
	})
	blocks := uint64(2 * 64 * ways)
	t0 := now()
	for _, a := range addrs {
		c.Access((a%blocks)*workload.BlockBytes, false)
	}
	return float64(now()-t0) / float64(len(addrs))
}

// traceSim produces the per-layer metrics of the paper path: untraced
// passes timed per cell, one traced pass over the random-mapping cells, and
// the side probes.
func traceSim(seed uint64, seconds float64, res *runResult, c *checker) error {
	m := res.Metrics
	r := newSimRunner(seed)
	if err := r.setup(); err != nil {
		return err
	}
	m.set("workload.gen_refs_per_s", float64(r.genRefs)/r.genSecs)

	// Untraced passes.
	var failed int64
	res0 := readResources()
	base := timeLoop(seconds*0.3, 3, int(r.refs), func() { failed += r.slice() })
	res1 := readResources()
	m.setGC(res0, res1)
	var cellRefs int64
	for _, p := range simPolicies {
		var perPass []float64
		for _, ns := range r.cellNs {
			var sum, refs float64
			for i, cell := range r.cells {
				if cell.Policy == p {
					sum += ns[i]
					refs += float64(len(cell.view))
				}
			}
			perPass = append(perPass, sum/refs)
		}
		m.setMedian("costsim.ns_per_ref."+p, perPass)
	}
	for _, cell := range r.cells {
		cellRefs += int64(len(cell.view))
	}
	m.set("costsim.cells", float64(len(r.cells)))
	m.set("costsim.refs", float64(cellRefs))
	var numaRef, numaMiss []float64
	var misses int64
	for _, n := range r.firstRes.Numa {
		misses += n.L2Misses
	}
	for _, ns := range r.numaNs {
		numaRef = append(numaRef, (ns[0]+ns[1])/float64(2*r.prog.TotalRefs()))
		numaMiss = append(numaMiss, (ns[0]+ns[1])/float64(misses))
	}
	m.setMedian("numasim.host_ns_per_ref", numaRef)
	m.setMedian("numasim.host_ns_per_miss", numaMiss)
	dcl := r.firstRes.Numa[1]
	m.set("numasim.sim_exec_ns", float64(dcl.ExecNs))
	m.set("numasim.l2_misses", float64(dcl.L2Misses))
	m.set("numasim.dir_accesses", float64(dcl.Protocol.DirAccesses))

	// Traced pass: hooks, cells and numasim runs recorded. First-touch
	// cells are left out so the spans fit the track.
	var traced []simCell
	var untracedNs float64
	var tracedRefs int64
	for i, cell := range r.cells {
		if cell.Mapping == "random" {
			traced = append(traced, cell)
			tracedRefs += int64(len(cell.view))
			var ns []float64
			for _, pass := range r.cellNs {
				ns = append(ns, pass[i])
			}
			untracedNs += median(ns)
		}
	}
	cc := calibrateClock()
	r.t = newTrack(1 << 20)
	table := &spanTable{}
	var tracedNs float64
	written := 0
	for i := range traced {
		// One cell at a time, so that no cell's spans overflow the track.
		r.t.reset()
		tp, ns, _ := r.pass(traced[i:i+1], false)
		tracedNs += ns[0]
		cell := tp.Cells[0]
		if cell.Result != r.firstRes.Cells[indexOfCell(r.cells, cell.simCell)].Result {
			failed += int64(len(cell.view))
			c.expect(false, "traced-identical", "%s/%s/%s simulated differently under the timing decorator", cell.Trace, cell.Mapping, cell.Policy)
		}
		table.add(aggregate(cc, r.t))
		if i == 0 {
			var err error
			if written, err = writeSpans(spanPath(simPaperName), r.t); err != nil {
				return err
			}
		}
	}
	r.t.reset()
	r.pass(nil, true) // the two numasim runs, one span each
	table.add(aggregate(cc, r.t))
	r.t = nil
	c.expect(table.dropped == 0, "spans-fit", "%d spans dropped by a full track", table.dropped)
	var numaNs []float64
	for _, ns := range r.numaNs {
		numaNs = append(numaNs, ns[0]+ns[1])
	}
	ops := tracedRefs + int64(2*r.prog.TotalRefs())
	perOp := (untracedNs + median(numaNs)) / float64(ops)
	m.set("trace.overhead_pct", 100*(tracedNs-untracedNs)/untracedNs)
	m.set("trace.spans", float64(table.spans))
	replacementMetrics(m, table, tracedRefs)
	m.set("trace.tiling_share", table.totalSelf()/(perOp*float64(ops)))
	fmt.Printf("  traced %d refs in %d cells and 2 numasim runs, %d spans (%d written to %s); clock cost %.1f ns inside a span, %.1f ns per pair\n",
		tracedRefs, len(traced), table.spans, written, spanPath(simPaperName), cc.inside, cc.pair)
	table.print(ops, perOp)

	simProbes(r, seed, seconds*0.3, m)

	res.Attempted, res.Failed = int64(r.passes)*r.refs+tracedRefs, failed
	flagNoisy(res, c, base)
	return nil
}

func indexOfCell(cells []simCell, want simCell) int {
	for i, c := range cells {
		if c.Trace == want.Trace && c.Mapping == want.Mapping && c.Policy == want.Policy {
			return i
		}
	}
	panic("bench: cell not in the list")
}

// simProbes measures what the passes cannot separate: each policy's hook
// cost per reference at three associativities (the software-time
// counterpart of the paper's hardware cost model) and the cache model's own;
// what costsim's LRU shadow and decision tracer add; and what RandomSweep's
// cell parallelism gains on this machine.
func simProbes(r *simRunner, seed uint64, budget float64, m metrics) {
	rg := newRNG(seed, 64)
	addrs := make([]uint64, 1<<17)
	for i := range addrs {
		addrs[i] = rg.next() >> 8
	}
	ways := []int{4, 8, 16}
	samples := map[string][]float64{}
	timeLoop(budget*0.5, 5, 1, func() {
		for _, p := range simPolicies {
			for _, w := range ways {
				name := fmt.Sprintf("replacement.ns_per_ref.%s.w%d", p, w)
				samples[name] = append(samples[name], driveCache(policyFactory(p, nil)(), w, addrs, seed))
			}
		}
		samples["cache.self_ns_per_ref"] = append(samples["cache.self_ns_per_ref"], driveCache(nullPolicy{}, 4, addrs, seed))
	})
	for name, v := range samples {
		m.setMedian(name, v)
	}

	// Observation overhead on the largest view, DCL, random mapping.
	var cell simCell
	for _, c := range r.cells {
		if c.Mapping == "random" && c.Policy == "DCL" && len(c.view) > len(cell.view) {
			cell = c
		}
	}
	cfg := costsim.Default()
	var plain, shadowed, tracedNs []float64
	timeLoop(budget*0.3, 5, 1, func() {
		t0 := now()
		costsim.Run(cell.view, cfg, replacement.NewDCL(), cell.src)
		t1 := now()
		costsim.RunObserved(cell.view, cfg, replacement.NewDCL(), cell.src, nil, 0, nil)
		t2 := now()
		tr := obs.NewTracer(1 << 12)
		costsim.RunObserved(cell.view, cfg, replacement.NewDCL(), cell.src, tr.Bind("DCL"), 0, nil)
		t3 := now()
		plain = append(plain, float64(t1-t0))
		shadowed = append(shadowed, float64(t2-t1))
		tracedNs = append(tracedNs, float64(t3-t2))
	})
	p, s, t := median(plain), median(shadowed), median(tracedNs)
	m.set("obs.sim_shadow_overhead_pct", 100*(s-p)/p)
	m.set("obs.sim_tracer_overhead_pct", 100*(t-s)/s)

	// RandomSweep fans its cells out over GOMAXPROCS goroutines.
	hafs := []float64{0.05, 0.1, 0.2, 0.3}
	sweep := func() float64 {
		t0 := now()
		costsim.RandomSweep(cell.view, cfg, []costsim.Ratio{simRatio}, hafs, costsim.PaperPolicies(), seed)
		return float64(now() - t0)
	}
	var serial, parallel []float64
	procs := runtime.GOMAXPROCS(0)
	timeLoop(budget*0.2, 3, 1, func() {
		parallel = append(parallel, sweep())
		runtime.GOMAXPROCS(1)
		serial = append(serial, sweep())
		runtime.GOMAXPROCS(procs)
	})
	m.set("costsim.sweep_speedup_x", median(serial)/median(parallel))
}
