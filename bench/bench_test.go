package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"costcache/internal/workload"
)

// shrink scales every workload down so a full run takes a fraction of a
// second, and restores the real sizes when the test ends.
func shrink(t *testing.T) {
	t.Helper()
	eh, ec, rh, rm, sg, od := engineHot, engineChurn, remoteHot, remoteMixed, simGenerators, outDir
	t.Cleanup(func() { engineHot, engineChurn, remoteHot, remoteMixed, simGenerators, outDir = eh, ec, rh, rm, sg, od })
	engineHot.sliceOps, engineHot.passSlices, engineHot.warmOps = 1<<13, 2, 1<<15
	engineChurn.sliceOps, engineChurn.passSlices, engineChurn.warmOps = 1<<13, 2, 1<<15
	remoteHot.windows, remoteHot.passSlices, remoteHot.warmOps = 8, 4, 1<<15
	remoteMixed.windows, remoteMixed.passSlices, remoteMixed.warmOps = 8, 4, 1<<15
	simGenerators = func() []workload.Generator {
		b := workload.DefaultBarnes()
		b.Bodies, b.Iterations = 256, 1
		return []workload.Generator{b}
	}
	outDir = t.TempDir()
}

// TestMetricNames runs every workload at tiny scale, both kinds of run, and
// demands exactly the metric names BENCHMARK.json declares: none missing,
// none extra, all finite, units from the spec, and every output check green.
func TestMetricNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	shrink(t)
	for _, name := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := execute(spec, name, 3, 0.05, traced, false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, ms := range want {
				m, ok := res.Metrics[ms.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", name, traced, ms.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != ms.Unit {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", name, traced, ms.Name, m.Value, m.Unit, ms.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, ms.Name)
				}
			}
			for _, ck := range res.Checks {
				if !ck.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", name, traced, ck.Name, ck.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestSpecShape pins what the task fixed: five workloads, the nine
// end-to-end metrics (set-up time among them) and bounds within the cap.
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.workloadNames(); len(got) != 5 {
		t.Errorf("workloads %v, want five", got)
	}
	seen := map[string]bool{}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[ms.Name] {
			t.Errorf("metric %s declared twice", ms.Name)
		}
		seen[ms.Name] = true
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("metric %s: better = %q", ms.Name, ms.Better)
		}
	}
	for _, ms := range spec.EndToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
	}
	if !seen["setup_s"] || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("setup_s declared: %v; %d end-to-end, %d per-layer metrics", seen["setup_s"], len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// streamHash folds every op stream a workload generates for a seed.
func streamHash(name string, seed uint64) uint64 {
	h := seed
	switch name {
	case engineHot.name, engineChurn.name:
		spec := engineHot
		if name == engineChurn.name {
			spec = engineChurn
		}
		r := newEngineRunner(spec, seed)
		r.genInputs()
		h = hashOps(hashOps(h, r.warm), r.ops)
		for _, c := range r.tab.costs {
			h = mix(h ^ uint64(c))
		}
		return mix(h ^ r.tab.base)
	default:
		spec := remoteHot
		if name == remoteMixed.name {
			spec = remoteMixed
		}
		r := newRemoteRunner(spec, seed)
		r.gens = 2 // the hash must not depend on the machine
		r.genInputs()
		h = hashOps(h, r.warm)
		for _, s := range r.streams {
			h = hashOps(h, s)
		}
		return h
	}
}

// TestStreamHashes pins the generated inputs of the serving workloads for
// the default seed and the held-out seed: a change to the generator, the key
// distribution or a workload's sizes shows up here, not as a silent shift of
// every number. (sim-paper's inputs are pinned by its golden statistics.)
func TestStreamHashes(t *testing.T) {
	want := map[string]map[uint64]uint64{
		"engine-hot":   {42: 0xc08cb9b5a2a625c2, 7: 0x432033d47a1cc9e6},
		"engine-churn": {42: 0x9140cd08fdbdc278, 7: 0x1db42df08602f86d},
		"remote-hot":   {42: 0x0d1cfd883a5e13b4, 7: 0xc696ce528a1226a3},
		"remote-mixed": {42: 0x501d84fb8f1b8caa, 7: 0xd3ade222b675e154},
	}
	for name, seeds := range want {
		for seed, h := range seeds {
			if got := streamHash(name, seed); got != h {
				t.Errorf("%s seed %d: stream hash %#x, want %#x", name, seed, got, h)
			}
		}
	}
}

// TestRecorderAllocFree: recording a span within a track's capacity, and
// dropping one beyond it, allocate nothing.
func TestRecorderAllocFree(t *testing.T) {
	tr := newTrack(1 << 12)
	if n := testing.AllocsPerRun(1000, func() {
		outer := tr.begin(layerEngine, spGetOrLoadHit)
		tr.end(tr.begin(layerReplacement, spAccess))
		tr.rename(outer, spGetOrLoadMiss)
		tr.end(outer)
	}); n != 0 {
		t.Errorf("recording allocates %.1f times per request", n)
	}
	if len(tr.spans) == 0 || tr.spans[1].parent != 0 || tr.spans[0].name != spGetOrLoadMiss {
		t.Errorf("spans not nested as recorded: %+v", tr.spans[:2])
	}
	full := newTrack(1)
	full.end(full.begin(layerBench, spWindow))
	if n := testing.AllocsPerRun(100, func() { full.end(full.begin(layerBench, spWindow)) }); n != 0 || full.dropped == 0 {
		t.Errorf("a full track allocates %.1f times per span, dropped %d", n, full.dropped)
	}
	var off *track
	off.end(off.begin(layerBench, spWindow)) // the recorder switched off must be callable
}

// TestRawClientAllocFree: a window through the raw client against the
// benchmark's echo server allocates nothing on either side once buffers have
// grown (an empty namespace keeps the codec's namespace string off the heap).
func TestRawClientAllocFree(t *testing.T) {
	echo, err := startEcho(64)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.stop()
	c, err := dialRaw(echo.addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	keys, costs := make([]uint64, windowOps), make([]int64, windowOps)
	for i := range keys {
		keys[i], costs[i] = uint64(i), 1
	}
	window := func() {
		if failed, err := c.window(keys, costs, nil); err != nil || failed != 0 {
			t.Fatalf("window: %d failed, %v", failed, err)
		}
	}
	window()
	if n := testing.AllocsPerRun(200, window); n != 0 {
		t.Errorf("a raw window allocates %.1f times", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// TestVerdicts: worse and better need runs enough to know their own spread
// (better ten pairs), a single pair is judged against the recorded A/A drift
// and says unchanged or unresolved only, and a metric leaving 0 has changed.
func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "r", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	rep := func(v []float64) []float64 { return append(append([]float64(nil), v...), v...) } // ten runs
	const none, quiet, loud = -1, 0.03, 0.15
	for _, tc := range []struct {
		ms       metricSpec
		a, b     []float64
		recorded float64
		want     string
	}{
		{lower, steady, []float64{120, 121, 119, 120, 120}, none, "worse"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, none, "worse"},
		{lower, steady, []float64{100.5, 101, 100, 100.5, 100}, none, "unchanged"},
		{lower, steady, []float64{95, 96, 94, 95, 95}, none, "unchanged"},  // five pairs establish no gain
		{lower, steady, []float64{80, 81, 79, 80, 80}, none, "unresolved"}, // beyond the bound, still no gain
		{lower, rep(steady), rep([]float64{95, 96, 94, 95, 95}), none, "better"},
		{higher, rep(steady), rep([]float64{120, 121, 119, 120, 120}), none, "better"},
		{lower, rep(steady), rep([]float64{95, 102, 94, 101, 95}), none, "unchanged"}, // wins 6 of 10
		{lower, []float64{100, 140, 80, 120, 60}, []float64{150, 150, 150, 150, 150}, none, "unresolved"},
		// One run a side: identical code must not read better or worse.
		{lower, []float64{100}, []float64{100}, quiet, "unchanged"},
		{lower, []float64{100}, []float64{99.99}, quiet, "unchanged"},
		{lower, []float64{100}, []float64{108}, quiet, "unchanged"},
		{lower, []float64{100}, []float64{131}, quiet, "unresolved"},
		{higher, []float64{100}, []float64{131}, quiet, "unresolved"},
		{lower, []float64{100}, []float64{100}, loud, "unresolved"},
		{lower, []float64{100}, []float64{100}, none, "unresolved"},
		{lower, []float64{100, 100}, []float64{131, 131}, quiet, "unresolved"},
		{lower, []float64{0, 0, 0}, []float64{0, 0, 0}, none, "unchanged"},
		{lower, []float64{0, 0, 0}, []float64{2, 2, 2}, none, "worse"},
	} {
		if got, _, _ := verdict(tc.ms, tc.a, tc.b, tc.recorded); got != tc.want {
			t.Errorf("%s, recorded drift %v: %v -> %v judged %s, want %s", tc.ms.Better, tc.recorded, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestExercisesTable: every prefix of the table names a declared per-layer
// metric, and a metric the table says a workload measures fails the run when
// it is not produced instead of reading 0.
func TestExercisesTable(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for w, groups := range exercises {
		for _, g := range groups {
			for _, prefix := range g {
				found := false
				for _, ms := range spec.PerLayer {
					found = found || strings.HasPrefix(ms.Name, prefix)
				}
				if !found {
					t.Errorf("%s: prefix %q matches no per-layer metric of BENCHMARK.json", w, prefix)
				}
			}
		}
	}
	res := &runResult{Workload: engineHot.name, Traced: true, Attempted: 1, Metrics: metrics{"net.residual_share": {Value: 0.5}}}
	c := &checker{}
	fillUnexercised(spec, res, c)
	if c.failures() != 1 || res.Metrics["net.residual_share"].Value != 0.5 {
		t.Errorf("a metric the table says engine-hot does not measure: %d failed checks, value %v", c.failures(), res.Metrics["net.residual_share"].Value)
	}
	res.finish(spec, c)
	if _, filled := res.Metrics["wire.bytes_per_op"]; !filled || res.Correct {
		t.Fatalf("an empty traced run: wire metric zero-filled %v, correct %v", filled, res.Correct)
	}
	for _, ck := range res.Checks {
		if ck.Name == "metric-present:engine.getorload_hit_ns" && !ck.OK {
			if got := res.Metrics["check_failures"].Value; got != float64(c.failures()) {
				t.Errorf("check_failures reads %v, %d checks failed", got, c.failures())
			}
			return
		}
	}
	t.Error("a missing exercised metric did not fail its presence check")
}

// TestReportAppends: -out adds to an existing report, so the two sides of a
// comparison can be run alternately, and refuses to overwrite anything else.
func TestReportAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	run := func(v float64) []*runResult {
		return []*runResult{{Workload: "w", Metrics: metrics{"m": {Value: v}}}}
	}
	for _, v := range []float64{1, 2} {
		if err := writeReport(path, run(v)); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rf.values()["w"]["m"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("values after two writes: %v, want [1 2]", got)
	}
	other := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(other, []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeReport(other, run(3)); err == nil {
		t.Error("a file that is not a report was overwritten")
	}
}

// TestSetResolution: a read's aux names the nearest Set behind it on the
// circle, so the value check knows exactly which Set it may observe.
func TestSetResolution(t *testing.T) {
	ops, sets := genOps(newRNG(1, 1), newKeyDist(4, 0), opMix{40, 10, 40, 10}, 64)
	last := map[uint32]uint32{}
	for _, o := range ops { // state at the end of a pass
		if o.kind == opSet {
			last[o.rank] = o.aux
		}
	}
	seen := 0
	for _, o := range ops {
		switch {
		case o.kind == opSet:
			last[o.rank] = o.aux
			seen++
		case o.kind != opInvalidate:
			want, ok := last[o.rank]
			if !ok {
				want = noSet
			}
			if o.aux != want {
				t.Fatalf("read of key %d resolves to Set %d, want %d", o.rank, o.aux, want)
			}
		}
	}
	if seen != sets || sets == 0 {
		t.Errorf("%d Sets counted, %d reported", seen, sets)
	}
}
