package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// exitRegression is the exit code of -compare when a metric is worse than its
// bound; 1 is an incorrect run and 2 a usage or set-up error.
const exitRegression = 3

// minSpreadRuns is the fewest runs whose own spread says anything: with three
// values statistics.quantiles puts the quartiles on the smallest and largest,
// with two it extrapolates beyond both.
const minSpreadRuns = 3

// minGainPairs and gainWinShare are the rule a gain is claimed by: at least
// ten pairs of runs, the change winning nine tenths of them.
const (
	minGainPairs = 10
	gainWinShare = 0.9
)

// worsening returns how much worse b is than a as a share of a, positive
// when worse, given the metric's direction. A metric that leaves 0 has moved
// by more than any bound.
func worsening(ms metricSpec, a, b float64) float64 {
	var d float64
	switch {
	case a != 0:
		d = (b - a) / math.Abs(a)
	case b > 0:
		d = math.Inf(1)
	case b < 0:
		d = math.Inf(-1)
	}
	if ms.Better == "higher" {
		d = -d
	}
	return d
}

// drift returns how much worse the worst of v is than the best: the largest
// disagreement between any two runs.
func drift(ms metricSpec, v []float64) float64 {
	best, worst := v[0], v[0]
	for _, x := range v {
		if worsening(ms, best, x) < 0 {
			best = x
		}
		if worsening(ms, worst, x) > 0 {
			worst = x
		}
	}
	return worsening(ms, best, worst) + 0 // + 0 turns -0 into 0
}

// gained applies the rule for claiming a gain to paired runs (the i-th run of
// each side made one after the other): at least minGainPairs pairs, b better
// in gainWinShare of all of them, ties counting for neither side, and the
// medians apart by more than a's own interquartile range.
func gained(ms metricSpec, a, b []float64) bool {
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	if pairs < minGainPairs {
		return false
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if worsening(ms, a[i], b[i]) < 0 {
			wins++
		}
	}
	return float64(wins) >= gainWinShare*float64(pairs) && -worsening(ms, median(a), median(b)) > spread(a)
}

// verdict classifies b against a for one metric. noise is how far runs of the
// same code disagree: the wider of the two sides' own spreads when each side
// has at least minSpreadRuns runs, and otherwise recorded, the drift
// bench/results/aa.json holds for this workload and metric (negative: none).
//
//	unresolved  the noise is unknown or wider than the bound, so the bound
//	            cannot be checked; or the medians are further apart than the
//	            bound but there are too few runs to call it worse or better
//	worse       b's median is worse than a's by more than the bound
//	better      the gain rule holds (see gained)
//	unchanged   b is within the bound of a and no gain is established
//
// A single pair of runs therefore never yields worse or better.
func verdict(ms metricSpec, a, b []float64, recorded float64) (v string, change, noise float64) {
	change = worsening(ms, median(a), median(b))
	enough := len(a) >= minSpreadRuns && len(b) >= minSpreadRuns
	noise = recorded
	if enough {
		noise = math.Max(spread(a), spread(b))
	}
	switch {
	case noise < 0 || noise > ms.Bound:
		return "unresolved", change, noise
	case gained(ms, a, b):
		return "better", change, noise
	case math.Abs(change) <= ms.Bound:
		return "unchanged", change, noise
	case enough && change > 0:
		return "worse", change, noise
	}
	return "unresolved", change, noise
}

// compareReports prints, per workload and end-to-end metric, the verdict of
// file b against file a under BENCHMARK.json's bounds. Every ratio is given
// with its base (a's median), and every workload gets its own rows. It
// returns how many metrics were worse than their bound.
func compareReports(spec *benchSpec, pathA, pathB string) (worse int, err error) {
	ra, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	rb, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	aa, err := readAA()
	if err != nil {
		fmt.Printf("no A/A record (%v): fewer than %d runs per side cannot be judged\n", err, minSpreadRuns)
	}
	va, vb := ra.values(), rb.values()
	fmt.Printf("base a = %s, b = %s; change is b against a, + is worse\n", pathA, pathB)
	fmt.Printf("%-13s %-20s %14s %14s %-8s %5s %9s %8s %7s  %s\n",
		"workload", "metric", "a (base)", "b", "unit", "runs", "change", "noise", "bound", "verdict")
	tally := map[string]int{}
	for _, w := range spec.workloadNames() {
		if va[w] == nil || vb[w] == nil {
			fmt.Printf("%-13s missing from %s\n", w, map[bool]string{true: pathA, false: pathB}[va[w] == nil])
			continue
		}
		for _, ms := range spec.EndToEnd {
			a, b := va[w][ms.Name], vb[w][ms.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-13s %-20s missing\n", w, ms.Name)
				continue
			}
			v, d, noise := verdict(ms, a, b, aa.drift(w, ms.Name))
			tally[v]++
			noiseText := "unknown"
			if noise >= 0 {
				noiseText = fmt.Sprintf("%.2f%%", 100*noise)
			}
			fmt.Printf("%-13s %-20s %14.6g %14.6g %-8s %2d/%-2d %+8.2f%% %8s %6.2f%%  %s\n",
				w, ms.Name, median(a), median(b), ms.Unit, len(a), len(b), 100*d, noiseText, 100*ms.Bound, v)
		}
	}
	fmt.Printf("%d worse, %d better, %d unchanged, %d unresolved\n", tally["worse"], tally["better"], tally["unchanged"], tally["unresolved"])
	return tally["worse"], nil
}

// aaMetric is one (workload, metric) row of the A/A record.
type aaMetric struct {
	Values []float64 `json:"values"` // one per set, in run order
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	// Drift is how much worse the worst set is than the best: the same code
	// agrees with itself when Drift stays within Bound. Spread is the
	// interquartile range of the sets as a share of their median, the figure
	// the bounds are sized by, recorded from minSpreadRuns sets on.
	Spread float64 `json:"spread"`
	Drift  float64 `json:"drift"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

// aaFile is bench/results/aa.json: what the same code measured against
// itself, and therefore the noise floor the bounds were chosen above.
type aaFile struct {
	Sets      int                            `json:"sets"`
	Seed      uint64                         `json:"seed"`
	Seconds   float64                        `json:"seconds"`
	Env       environment                    `json:"env"`
	Workloads map[string]map[string]aaMetric `json:"workloads"`
}

// aaPath is relative to the checkout root, like every path the run command
// uses.
var aaPath = filepath.Join("bench", "results", "aa.json")

func readAA() (*aaFile, error) {
	b, err := os.ReadFile(aaPath)
	if err != nil {
		return nil, err
	}
	var f aaFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", aaPath, err)
	}
	return &f, nil
}

// drift returns the recorded drift of a workload's metric, negative when
// there is no record of it.
func (f *aaFile) drift(workload, metric string) float64 {
	if f == nil {
		return -1
	}
	row, ok := f.Workloads[workload][metric]
	if !ok {
		return -1
	}
	return row.Drift
}

// runAA runs sets sets of every workload's end-to-end run, each run in a
// process of its own, and records how far they disagree.
func runAA(spec *benchSpec, sets int, seed uint64, seconds float64) error {
	runs := runSets(spec.workloadNames(), sets, seed, seconds, 0)
	vals := (&reportFile{Runs: runs}).values()
	rec := aaFile{Sets: sets, Seed: seed, Seconds: seconds, Env: runs[0].Env, Workloads: map[string]map[string]aaMetric{}}
	rec.Env.LoadAvgEnd = runs[len(runs)-1].Env.LoadAvgEnd
	outside := 0
	fmt.Printf("== A/A: %d sets of the same code, seed %d\n", sets, seed)
	for _, w := range spec.workloadNames() {
		rec.Workloads[w] = map[string]aaMetric{}
		for _, ms := range spec.EndToEnd {
			v := vals[w][ms.Name]
			row := aaMetric{Values: v, Median: median(v), Unit: ms.Unit, Drift: drift(ms, v), Bound: ms.Bound}
			if len(v) >= minSpreadRuns {
				row.Spread = spread(v)
			}
			row.Within = row.Drift <= ms.Bound
			if !row.Within {
				outside++
			}
			rec.Workloads[w][ms.Name] = row
			fmt.Printf("%-13s %-20s median %14.6g %-8s spread %6.2f%% drift %6.2f%% bound %6.2f%% within=%v\n",
				w, ms.Name, row.Median, ms.Unit, 100*row.Spread, 100*row.Drift, 100*ms.Bound, row.Within)
		}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(aaPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(aaPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range runs {
		if !r.Correct {
			return fmt.Errorf("a run of %s was incorrect", r.Workload)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) disagree with themselves by more than their bound (see %s)", outside, aaPath)
	}
	return nil
}
