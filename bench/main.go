// Command bench is the repository's benchmark: five named workloads that
// each pin the cache property a layer's cost depends on, end-to-end metrics
// that repeat, and a traced run that breaks the per-op time down by layer.
// BENCHMARK.json at the repository root names the workloads, metrics, units,
// directions and regression bounds; README.md here explains every choice.
//
//	bash bench/run.sh --workload engine-hot --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -all -trace 1 -out /tmp/a.json
//	bash bench/run.sh -all -runs 10 -out /tmp/a.json
//	bash bench/run.sh -compare /tmp/a.json /tmp/b.json
//	bash bench/run.sh -aa 4
//
// Every layer is measured from outside: by timing calls into its public
// functions and by wrapping what it accepts as arguments. Nothing in the
// program is changed, and the benchmark imports no load generator or command
// of the repository.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 42, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, span recorder off; 1: traced run and probes, per-layer metrics")
		all      = flag.Bool("all", false, "run every workload (with -trace 1: the end-to-end run, then the traced run)")
		runs     = flag.Int("runs", 1, "make every run this many times, set after set, each in a process of its own: what -compare needs to judge")
		out      = flag.String("out", "", "also add every run made to this JSON file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		aa       = flag.Int("aa", 0, "run N sets of every workload on the same code and write their spreads to bench/results/aa.json")
		golden   = flag.Bool("update-golden", false, "rewrite bench/golden/sim-paper.seed<N>.json from this run (sim-paper only)")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareReports(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(exitRegression)
		}
	case *aa > 0:
		if err := runAA(spec, *aa, *seed, *seconds); err != nil {
			fatal(err)
		}
	case *all:
		finishRuns(runSets(spec.workloadNames(), *runs, *seed, *seconds, *trace), *out)
	case *workload == "":
		fatal(fmt.Errorf("name a workload with -workload (one of %s) or pass -all", strings.Join(spec.workloadNames(), ", ")))
	case *runs > 1:
		finishRuns(runSets([]string{*workload}, *runs, *seed, *seconds, *trace), *out)
	default:
		finishRuns([]*runResult{runOne(spec, *workload, *seed, *seconds, *trace == 1, *golden)}, *out)
	}
}

// runSets makes sets sets of runs, each set one end-to-end run of every named
// workload (and, with trace 1, its traced run), every run in a process of its
// own. Running set after set rather than workload after workload spreads each
// workload's runs over the whole period, so a slow minute of the machine
// falls on all of them alike.
func runSets(names []string, sets int, seed uint64, seconds float64, trace int) []*runResult {
	var runs []*runResult
	for s := 0; s < sets; s++ {
		for _, name := range names {
			for tr := 0; tr <= trace; tr++ {
				runs = append(runs, runFresh(name, seed, seconds, tr))
			}
		}
	}
	return runs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// finishRuns writes the report file if asked and exits non-zero when any run
// was incorrect.
func finishRuns(runs []*runResult, out string) {
	if out != "" {
		if err := writeReport(out, runs); err != nil {
			fatal(err)
		}
	}
	for _, r := range runs {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// runFresh runs one workload once in a process of its own, the way the
// driver runs it, and returns its result. Sets of runs (-all, -runs, -aa) are made
// this way because a run that inherits another's heap is not the same
// measurement: back to back in one process, sim-paper read 20–25 M refs/s
// where a fresh process reads 28–30 M.
func runFresh(name string, seed uint64, seconds float64, trace int) *runResult {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.CreateTemp(outDir, "run-*.json")
	if err != nil {
		fatal(err)
	}
	f.Close()
	defer os.Remove(f.Name())
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", f.Name())
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // exit code 1 is an incorrect run, reported through the file
	rf, err := readReport(f.Name())
	if err != nil || len(rf.Runs) != 1 {
		fatal(fmt.Errorf("%s in its own process: %v (report: %v)", name, runErr, err))
	}
	return rf.Runs[0]
}

// runOne runs one workload once — the end-to-end run or the traced run —
// and prints its report. The summary object is the last line it prints.
func runOne(spec *benchSpec, name string, seed uint64, seconds float64, traced, updateGolden bool) *runResult {
	res, err := execute(spec, name, seed, seconds, traced, updateGolden)
	if err != nil {
		fatal(err)
	}
	res.print(spec)
	return res
}

// execute runs one workload once and returns its finished result.
func execute(spec *benchSpec, name string, seed uint64, seconds float64, traced, updateGolden bool) (*runResult, error) {
	res := &runResult{Workload: name, Seed: seed, Traced: traced, Seconds: seconds, Metrics: metrics{}, Env: readEnvironment()}
	c := &checker{}
	if l, ok := loadAvg1(res.Env.LoadAvgStart); ok && l > float64(res.Env.NumCPU)/2 {
		res.Noisy = true
		c.warn("load average %.2f exceeds nproc/2 = %.1f at start: a noisy machine", l, float64(res.Env.NumCPU)/2)
	}
	var err error
	switch name {
	case engineHot.name, engineChurn.name:
		es := engineHot
		if name == engineChurn.name {
			es = engineChurn
		}
		if traced {
			err = traceEngine(es, seed, seconds, res, c)
		} else {
			err = measure(newEngineRunner(es, seed), seconds, res, c)
		}
	case remoteHot.name, remoteMixed.name:
		rs := remoteHot
		if name == remoteMixed.name {
			rs = remoteMixed
		}
		if traced {
			err = traceRemote(rs, seed, seconds, res, c)
		} else {
			err = measure(newRemoteRunner(rs, seed), seconds, res, c)
		}
	case simPaperName:
		if traced {
			err = traceSim(seed, seconds, res, c)
		} else {
			sr := newSimRunner(seed)
			err = measure(sr, seconds, res, c)
			if err == nil && updateGolden {
				err = sr.writeGolden()
			}
		}
	default:
		err = fmt.Errorf("unknown workload (BENCHMARK.json names %s)", strings.Join(spec.workloadNames(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Env.LoadAvgEnd = loadAvg()
	if traced {
		fillUnexercised(spec, res, c)
	}
	res.finish(spec, c)
	return res, nil
}

// Which per-layer metrics a workload's traced run must produce, by name
// prefix (README.md has the same table with how each is obtained). Only the
// others are reported as 0, for a layer that did no work on the workload; an
// exercised metric that is not produced is a failed check, not a silent 0.
var (
	everyTrace = []string{"trace.", "runtime.", "fail_share", "check_failures",
		"replacement.access_ns", "replacement.touch_ns", "replacement.victim_ns", "replacement.fill_ns",
		"replacement.hooks_per_op", "replacement.busy_share"}
	engineCalls = []string{"engine.getorload_", "engine.get_ns", "engine.set_ns", "engine.invalidate_ns",
		"engine.self_ns_per_op", "engine.hits", "engine.misses", "engine.coalesced", "engine.evictions", "engine.cost_paid"}
	engineProbes = []string{"engine.bytes_per_entry", "engine.scaling_", "engine.lock_wait_ns_per_op",
		"obs.registry_", "obs.shadow_", "gen."}
	remoteLayers = []string{"wire.", "server.", "client.", "net."}
	simLayers    = []string{"replacement.ns_per_ref.", "cache.", "obs.sim_", "costsim.", "numasim.", "workload."}

	exercises = map[string][][]string{
		engineHot.name:   {everyTrace, engineCalls, engineProbes},
		engineChurn.name: {everyTrace, engineCalls, engineProbes},
		remoteHot.name:   {everyTrace, engineCalls, remoteLayers},
		remoteMixed.name: {everyTrace, engineCalls, remoteLayers},
		simPaperName:     {everyTrace, simLayers},
	}
)

// exercised reports whether the workload's traced run measures the metric.
func exercised(workload, metric string) bool {
	for _, group := range exercises[workload] {
		for _, prefix := range group {
			if strings.HasPrefix(metric, prefix) {
				return true
			}
		}
	}
	return false
}

// fillUnexercised reports 0 for every per-layer metric of a layer the
// workload does not exercise, and fails a check when the traced run produced
// one of those after all: the table above would be out of date.
func fillUnexercised(spec *benchSpec, res *runResult, c *checker) {
	for _, ms := range spec.PerLayer {
		if exercised(res.Workload, ms.Name) {
			continue
		}
		if _, produced := res.Metrics[ms.Name]; produced {
			c.expect(false, "metric-unexercised:"+ms.Name, "produced by %s, which the exercises table says does not measure it", res.Workload)
			continue
		}
		res.Metrics.set(ms.Name, 0)
	}
}
