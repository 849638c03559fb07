package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process started measuring.
// time.Since on a monotonic Time is a single clock read, about half the cost
// of time.Now.
func now() int64 { return int64(time.Since(epoch)) }

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// so spreads printed here are the ones an outside harness computes from the
// same values. v is not modified.
func quartiles(v []float64) (q1, med, q3 float64) {
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapLive forces a collection and returns the bytes still reachable.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// resources is a snapshot of the process-wide meters a timed run is
// bracketed with.
type resources struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	gcCPUShare float64
}

func readResources() resources {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return resources{
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc,
		gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs, gcCPUShare: m.GCCPUFraction,
	}
}

// environment is recorded with every report so numbers are never compared
// across machines by accident.
type environment struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	CPUModel     string `json:"cpu_model"`
	LoadAvgStart string `json:"loadavg_start"`
	LoadAvgEnd   string `json:"loadavg_end"`
}

func readEnvironment() environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(), CPUModel: cpuModel(),
		LoadAvgStart: loadAvg(),
	}
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// loadAvg1 parses the one-minute figure; ok is false where /proc is absent.
func loadAvg1(s string) (v float64, ok bool) {
	f := strings.Fields(s)
	if len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return v, err == nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit without running git (the driver's
// checkout is not a repository).
func gitRev() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		if !strings.HasPrefix(s, "ref: ") {
			return s
		}
		if ref, err := os.ReadFile(dir + "/" + strings.TrimPrefix(s, "ref: ")); err == nil {
			return strings.TrimSpace(string(ref))
		}
	}
	return "unknown"
}
