package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The span recorder. A traced run records one span per layer boundary it
// crosses, from the benchmark's own files only: around each call into a
// layer's public functions and inside the decorators the layers accept as
// arguments (replacement.Factory, engine.Loader, server.Backend). Spans go
// into preallocated per-goroutine tracks and are written out after the run.

// Layers are named after the packages they time; layerBench is the
// benchmark's own code (request windows, loaders and backends it supplies).
const (
	layerBench uint8 = iota
	layerReplacement
	layerEngine
	layerClient
	layerCostsim
	layerNumasim
	numLayers
)

// The server has no layer here: it cannot be spanned from outside (its figures
// come from the raw probe and the Registry), and spans inside the program are
// a later change.
var layerNames = [numLayers]string{"bench", "replacement", "engine", "client", "costsim", "numasim"}

// Span names, one per instrumented call.
const (
	spAccess uint8 = iota
	spTouch
	spVictim
	spFill
	spInvalidateHook
	spGetOrLoadHit
	spGetOrLoadMiss
	spGet
	spSet
	spInvalidate
	spLoader
	spBackend
	spWindow
	spStart
	spWait
	spClientGet
	spClientSet
	spCell
	spNumaRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"access", "touch", "victim", "fill", "invalidate_hook",
	"getorload_hit", "getorload_miss", "get", "set", "invalidate",
	"loader", "backend", "window", "start", "wait", "get", "set", "cell", "run",
}

// span is one recorded interval. parent indexes the same track (-1 for a
// root); req numbers the request the span belongs to within its track.
type span struct {
	start, end int64
	parent     int32
	req        uint32
	layer      uint8
	name       uint8
}

// track is one goroutine's span buffer: spans nest by containment, so the
// parent of a new span is whatever is open on the stack. A nil track records
// nothing, which is how the recorder is switched off for end-to-end runs. A
// full track stops recording (and counts what it dropped) instead of
// growing, so the timed path never allocates.
type track struct {
	spans   []span
	stack   []int32
	req     uint32
	dropped int64
}

func newTrack(capacity int) *track {
	return &track{spans: make([]span, 0, capacity), stack: make([]int32, 0, 16)}
}

// begin opens a span and returns its handle for end.
func (t *track) begin(layer, name uint8) int32 {
	if t == nil {
		return -1
	}
	return t.push(layer, name)
}

func (t *track) push(layer, name uint8) int32 {
	n := len(t.spans)
	if n == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if d := len(t.stack); d > 0 {
		parent = t.stack[d-1]
	} else {
		t.req++
	}
	t.spans = t.spans[:n+1]
	t.spans[n] = span{parent: parent, req: t.req, layer: layer, name: name}
	t.stack = append(t.stack, int32(n))
	t.spans[n].start = now()
	return int32(n)
}

// end closes the span begin returned.
func (t *track) end(h int32) {
	if h < 0 {
		return
	}
	t.spans[h].end = now()
	t.stack = t.stack[:len(t.stack)-1]
}

// reset empties the track for the next traced slice.
func (t *track) reset() { t.spans, t.dropped = t.spans[:0], 0 }

// rename relabels an open or closed span (a GetOrLoad is only known to be a
// miss once its loader has run).
func (t *track) rename(h int32, name uint8) {
	if h >= 0 {
		t.spans[h].name = name
	}
}

// sharedTrack serialises spans recorded from goroutines the benchmark does
// not own (server dispatch goroutines calling the backend decorator). Its
// spans are roots: nesting is not meaningful across goroutines.
type sharedTrack struct {
	mu sync.Mutex
	t  *track
}

func (s *sharedTrack) record(layer, name uint8, start, end int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if n := len(s.t.spans); n < cap(s.t.spans) {
		s.t.req++
		s.t.spans = s.t.spans[:n+1]
		s.t.spans[n] = span{start: start, end: end, parent: -1, req: s.t.req, layer: layer, name: name}
	} else {
		s.t.dropped++
	}
	s.mu.Unlock()
}

// clockCost calibrates the recorder against itself: inside is what an empty
// span measures (one clock read's worth, charged to the span), pair is what
// a begin/end pair costs its parent in total.
type clockCost struct{ inside, pair float64 }

func calibrateClock() clockCost {
	const n = 20000
	t := newTrack(n)
	var insides []float64
	var pairs []float64
	for rep := 0; rep < 5; rep++ {
		t.reset()
		t0 := now()
		for i := 0; i < n; i++ {
			t.end(t.begin(layerBench, spWindow))
		}
		pairs = append(pairs, float64(now()-t0)/n)
		sum := 0.0
		for _, s := range t.spans {
			sum += float64(s.end - s.start)
		}
		insides = append(insides, sum/n)
	}
	return clockCost{inside: median(insides), pair: median(pairs)}
}

// spanStat aggregates the spans of one (layer, name).
type spanStat struct {
	count int64
	total float64 // summed durations, clock cost removed
	self  float64 // total minus the time covered by child spans
}

func (s spanStat) mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.total / float64(s.count)
}

func (s spanStat) selfMean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.self / float64(s.count)
}

// spanTable is the per-(layer, name) aggregate of a traced run.
type spanTable struct {
	stats   [numLayers][numSpanNames]spanStat
	spans   int64
	dropped int64
}

// aggregate folds tracks into a table. A span's self time is its duration
// minus its direct children's; the calibrated clock cost is taken out of
// both (each child costs its parent one begin/end pair, of which only the
// inside part lies within the child's own interval).
func aggregate(cc clockCost, tracks ...*track) *spanTable {
	tab := &spanTable{}
	for _, t := range tracks {
		if t == nil {
			continue
		}
		tab.dropped += t.dropped
		kids := make([]float64, len(t.spans))
		nkids := make([]int32, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				kids[s.parent] += float64(s.end - s.start)
				nkids[s.parent]++
			}
		}
		for i, s := range t.spans {
			if s.end == 0 {
				continue // left open by a full track
			}
			st := &tab.stats[s.layer][s.name]
			dur := float64(s.end-s.start) - cc.inside
			self := dur - kids[i] - float64(nkids[i])*(cc.pair-cc.inside)
			if dur < 0 {
				dur = 0
			}
			if self < 0 {
				self = 0
			}
			st.count++
			st.total += dur
			st.self += self
			tab.spans++
		}
	}
	return tab
}

func (tab *spanTable) get(layer, name uint8) spanStat { return tab.stats[layer][name] }

// add folds another table into tab (traced slices are aggregated one track
// reset at a time).
func (tab *spanTable) add(o *spanTable) {
	for l := range tab.stats {
		for n := range tab.stats[l] {
			s, a := &tab.stats[l][n], o.stats[l][n]
			s.count += a.count
			s.total += a.total
			s.self += a.self
		}
	}
	tab.spans += o.spans
	tab.dropped += o.dropped
}

// layerSelf sums the self time of every span of a layer.
func (tab *spanTable) layerSelf(layer uint8) float64 {
	sum := 0.0
	for _, s := range tab.stats[layer] {
		sum += s.self
	}
	return sum
}

// totalSelf sums the self time of every span: the time the spans cover.
func (tab *spanTable) totalSelf() float64 {
	sum := 0.0
	for l := uint8(0); l < numLayers; l++ {
		sum += tab.layerSelf(l)
	}
	return sum
}

// layerCount sums the span count of a layer.
func (tab *spanTable) layerCount(layer uint8) int64 {
	var n int64
	for _, s := range tab.stats[layer] {
		n += s.count
	}
	return n
}

// print writes the layer table: per span kind its count, mean and self mean,
// then per layer the self time per op and its share of perOpNs, the per-op
// time of the same loop with the recorder off, and the sum of the shares (the
// tiling share).
func (tab *spanTable) print(ops int64, perOpNs float64) {
	w := os.Stdout
	fmt.Fprintf(w, "  %-12s %-16s %10s %12s %12s\n", "layer", "span", "count", "mean_ns", "self_ns")
	for l := uint8(0); l < numLayers; l++ {
		for n := uint8(0); n < numSpanNames; n++ {
			if s := tab.stats[l][n]; s.count > 0 {
				fmt.Fprintf(w, "  %-12s %-16s %10d %12.1f %12.1f\n", layerNames[l], spanNames[n], s.count, s.mean(), s.selfMean())
			}
		}
	}
	if ops == 0 || perOpNs == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %14s %10s\n", "layer", "self_ns_per_op", "share")
	total := 0.0
	for l := uint8(0); l < numLayers; l++ {
		if tab.layerCount(l) == 0 {
			continue
		}
		per := tab.layerSelf(l) / float64(ops)
		total += per
		fmt.Fprintf(w, "  %-12s %14.1f %9.1f%%\n", layerNames[l], per, 100*per/perOpNs)
	}
	fmt.Fprintf(w, "  %-12s %14.1f %9.1f%%  (tiling share of the %.1f ns an op takes untraced)\n", "sum", total, 100*total/perOpNs, perOpNs)
}

// outDir is where traced runs leave their span files, relative to the
// checkout root the run command starts in.
var outDir = "bench/out"

func spanPath(workload string) string { return filepath.Join(outDir, workload+".spans.jsonl") }

// maxSpanLines bounds the span file: a traced run records up to a million
// spans, of which the file keeps the earliest whole requests of each track.
const maxSpanLines = 100000

// writeSpans writes tracks as JSONL, one span per line, earliest requests
// first, and returns the number of lines written.
func writeSpans(path string, tracks ...*track) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	live := 0
	for _, t := range tracks {
		if t != nil && len(t.spans) > 0 {
			live++
		}
	}
	written := 0
	for ti, t := range tracks {
		if t == nil || len(t.spans) == 0 {
			continue
		}
		quota := maxSpanLines / live
		n := len(t.spans)
		if n > quota {
			// Cut at a request boundary so no request is written in part.
			n = sort.Search(len(t.spans), func(i int) bool { return t.spans[i].req > t.spans[quota].req-1 })
		}
		for i, s := range t.spans[:n] {
			fmt.Fprintf(w, `{"span":%d,"parent":%d,"req":%d,"track":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				i, s.parent, s.req, ti, layerNames[s.layer], spanNames[s.name], s.start, s.end)
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}
