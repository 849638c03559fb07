package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds are stated. The program reads it instead of carrying
// a second copy, so the two cannot disagree.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root, whether the process
// runs there (the run command) or in bench/ (go test).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// metric is one reported figure. Q1, Q3 and N are the quartiles and count of
// the samples behind a value estimated from slices (zero otherwise).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metrics collects a run's figures by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v} }

// setMedian stores the median of samples with its quartiles.
func (m metrics) setMedian(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	m[name] = metric{Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// setGC stores what the collector did between two resource snapshots.
func (m metrics) setGC(before, after resources) {
	m.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	m.set("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	m.set("runtime.gc_cpu_share", after.gcCPUShare)
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checker accumulates output checks and warnings for one run.
type checker struct {
	checks   []check
	warnings []string
}

func (c *checker) expect(ok bool, name, format string, args ...any) {
	ck := check{Name: name, OK: ok}
	if !ok {
		ck.Detail = fmt.Sprintf(format, args...)
	}
	c.checks = append(c.checks, ck)
}

func (c *checker) warn(format string, args ...any) {
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
}

func (c *checker) failures() int {
	n := 0
	for _, ck := range c.checks {
		if !ck.OK {
			n++
		}
	}
	return n
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Traced    bool        `json:"traced"`
	Seconds   float64     `json:"seconds"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Noisy     bool        `json:"noisy"`
	Metrics   metrics     `json:"metrics"`
	Checks    []check     `json:"checks"`
	Warnings  []string    `json:"warnings,omitempty"`
	Env       environment `json:"env"`
}

// finish applies the spec to the collected metrics: every declared metric of
// the run's kind must be present and finite, nothing undeclared may be
// reported, and units come from the spec. Failures are end-to-end facts (the
// summary's correct, attempted and failed carry them); a traced run reports
// them by name as well, counted once every other check has run.
func (r *runResult) finish(spec *benchSpec, c *checker) {
	want := spec.EndToEnd
	if r.Traced {
		want = spec.PerLayer
		r.Metrics.set("fail_share", float64(r.Failed)/float64(r.Attempted))
		r.Metrics.set("check_failures", 0)
	}
	declared := make(map[string]bool, len(want))
	for _, ms := range want {
		declared[ms.Name] = true
		m, ok := r.Metrics[ms.Name]
		c.expect(ok, "metric-present:"+ms.Name, "declared in BENCHMARK.json but not reported")
		finite := !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0)
		c.expect(finite, "metric-finite:"+ms.Name, "value %v", m.Value)
		if !finite {
			m.Value = 0
		}
		m.Unit = ms.Unit
		r.Metrics[ms.Name] = m
	}
	for name := range r.Metrics {
		if !declared[name] {
			c.expect(false, "metric-declared:"+name, "reported but not declared in BENCHMARK.json")
			delete(r.Metrics, name)
		}
	}
	if m, ok := r.Metrics["check_failures"]; ok {
		m.Value = float64(c.failures())
		r.Metrics["check_failures"] = m
	}
	r.Checks = c.checks
	r.Warnings = c.warnings
	r.Correct = c.failures() == 0 && r.Failed == 0
}

// print writes the human-readable report to w and, as the last line of
// standard output, the one-object summary the run contract asks for.
func (r *runResult) print(spec *benchSpec) {
	w := os.Stdout
	kind := "end-to-end"
	want := spec.EndToEnd
	if r.Traced {
		kind, want = "per-layer", spec.PerLayer
	}
	fmt.Fprintf(w, "== %s seed=%d %s  nproc=%d GOMAXPROCS=%d %s rev=%.12s\n", r.Workload, r.Seed, kind,
		r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GitRev)
	fmt.Fprintf(w, "   cpu=%q loadavg start=%q end=%q\n", r.Env.CPUModel, r.Env.LoadAvgStart, r.Env.LoadAvgEnd)
	for _, ms := range want {
		m := r.Metrics[ms.Name]
		line := fmt.Sprintf("  %-36s %16.6g %-8s", ms.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w, line)
	}
	failed := 0
	for _, ck := range r.Checks {
		if !ck.OK {
			failed++
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", ck.Name, ck.Detail)
		}
	}
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", s)
	}
	fmt.Fprintf(w, "  checks: %d run, %d failed; ops attempted %d, failed %d; noisy=%v\n",
		len(r.Checks), failed, r.Attempted, r.Failed, r.Noisy)

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]outMetric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = outMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finish made every value finite
	}
	fmt.Fprintln(w, string(b))
}

// reportFile is what -out writes and -compare reads: every run made, in
// order, so a file holds several runs of a workload.
type reportFile struct {
	Runs []*runResult `json:"runs"`
}

// writeReport appends runs to the report at path, or starts one: the two
// sides of a comparison are made alternately, a set at a time, each adding to
// its own file.
func writeReport(path string, runs []*runResult) error {
	if old, err := readReport(path); err == nil {
		runs = append(old.Runs, runs...)
	} else if b, _ := os.ReadFile(path); len(b) > 0 { // a missing or empty file starts a report
		return fmt.Errorf("not adding to %s: %w", path, err)
	}
	b, err := json.MarshalIndent(reportFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values returns, per workload and metric, the values of every untraced run
// in the file, in run order.
func (rf *reportFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}
