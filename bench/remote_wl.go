package main

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"costcache/internal/client"
	"costcache/internal/engine"
	"costcache/internal/obs"
	"costcache/internal/replacement"
	"costcache/internal/server"
)

// remoteNS is the namespace the benchmark's server hosts, as cacheserved's
// default does.
const remoteNS = "bench"

// windowOps is the number of requests in one client window.
const windowOps = 32

// remoteSpec describes a loopback server workload: generator goroutines each
// sending windows of windowOps requests through a 1-node client.Ring.
type remoteSpec struct {
	name  string
	keys  int
	zipfS float64
	// valueBytes is the size of the values the benchmark's backend returns
	// and its Sets carry; 0 keeps the server's EchoBackend(0) (8 bytes).
	valueBytes int
	// syncOps ends every window with one synchronous Set and one Get of the
	// key just set (the client has no asynchronous Set/Get); the window's
	// other requests are pipelined GETORLOADs.
	syncOps    bool
	windows    int // windows per goroutine per slice
	passSlices int
	warmOps    int
}

var remoteHot = remoteSpec{
	name: "remote-hot", keys: 32768, zipfS: 1.1,
	windows: 128, passSlices: 64, warmOps: 1 << 18,
}

var remoteMixed = remoteSpec{
	name: "remote-mixed", keys: 65536, valueBytes: 512, syncOps: true,
	windows: 128, passSlices: 64, warmOps: 1 << 17,
}

// generators is the number of load goroutines and pooled connections: load
// comes from one process and never from more goroutines than there are CPUs.
func generators() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// valueSize is the size of the values on the wire.
func (s remoteSpec) valueSize() int {
	if s.valueBytes == 0 {
		return 8 // EchoBackend's big-endian key
	}
	return s.valueBytes
}

// pipelined is the number of GETORLOADs at the head of each window.
func (s remoteSpec) pipelined() int {
	if s.syncOps {
		return windowOps - 2
	}
	return windowOps
}

// Values of the big-value workload are self-describing, so any reply can be
// checked without knowing which writer produced it: word 0 is the key, word 1
// the version (0 for the backend's value, otherwise the Set that wrote it)
// and the remaining words are a hash chain of both.
func fillValue(b []byte, key, ver uint64) {
	binary.BigEndian.PutUint64(b, key)
	binary.BigEndian.PutUint64(b[8:], ver)
	h := mix(key ^ mix(ver))
	for i := 16; i+8 <= len(b); i += 8 {
		h = mix(h + uint64(i))
		binary.BigEndian.PutUint64(b[i:], h)
	}
}

// checkValue verifies a value against its own header and returns its version.
func checkValue(b []byte, key uint64, size int) (ver uint64, ok bool) {
	if len(b) != size || binary.BigEndian.Uint64(b) != key {
		return 0, false
	}
	ver = binary.BigEndian.Uint64(b[8:])
	h := mix(key ^ mix(ver))
	for i := 16; i+8 <= len(b); i += 8 {
		h = mix(h + uint64(i))
		if binary.BigEndian.Uint64(b[i:]) != h {
			return ver, false
		}
	}
	return ver, true
}

// countedBackend wraps a server.Backend from outside: it counts loads always
// and, while a traced run has set spans, records one span per load.
type countedBackend struct {
	inner server.Backend
	loads atomic.Int64
	ns    atomic.Int64
	spans atomic.Pointer[sharedTrack]
}

func (b *countedBackend) load(key uint64, cost replacement.Cost) ([]byte, error) {
	b.loads.Add(1)
	st := b.spans.Load()
	if st == nil {
		return b.inner(key, cost)
	}
	t0 := now()
	v, err := b.inner(key, cost)
	t1 := now()
	b.ns.Add(t1 - t0)
	st.record(layerBench, spBackend, t0, t1)
	return v, err
}

// remoteRunner is a loopback server workload.
type remoteRunner struct {
	spec remoteSpec
	seed uint64
	gens int

	keyBase uint64
	costs   []replacement.Cost
	warm    []op
	streams [][]op // one per generator goroutine
	base    uint64

	eng     *engine.Engine
	reg     *obs.Registry
	backend *countedBackend
	srv     *server.Server
	ring    *client.Ring

	pos      int // offset of the next slice in each stream
	done     int64
	sent     int64         // requests sent through the ring
	versions []uint64      // per goroutine: Sets issued so far
	tracks   []*track      // per goroutine; nil entries: recorder off
	errs     atomic.Int64  // requests that returned an error
	timeouts atomic.Int64  // of which client deadline expiries
	wins     [][]pendingOp // per goroutine scratch
}

// pendingOp is one in-flight request of a window.
type pendingOp struct {
	p    *client.Pending
	node int
}

func newRemoteRunner(spec remoteSpec, seed uint64) *remoteRunner {
	return &remoteRunner{spec: spec, seed: seed, gens: generators()}
}

func (r *remoteRunner) sliceOps() int64 { return int64(r.gens * r.spec.windows * windowOps) }
func (r *remoteRunner) passSlices() int { return r.spec.passSlices }
func (r *remoteRunner) heapBase() uint64 {
	return r.base
}

// genWindows draws one goroutine's stream: per window, the pipelined
// GETORLOADs and then, for syncOps, a Set and a Get of one key from the
// goroutine's own share of the key space (so no other writer races its
// version check).
func (r *remoteRunner) genWindows(g int, d keyDist) []op {
	rg := newRNG(r.seed, 16+uint64(g))
	n := r.spec.windows * r.spec.passSlices
	ops := make([]op, 0, n*windowOps)
	for w := 0; w < n; w++ {
		for j := 0; j < r.spec.pipelined(); j++ {
			ops = append(ops, op{rank: d.draw(rg), kind: opGetOrLoad, aux: noSet})
		}
		if r.spec.syncOps {
			k := d.draw(rg)
			k = k - k%uint32(r.gens) + uint32(g)
			ops = append(ops, op{rank: k, kind: opSet}, op{rank: k, kind: opGet})
		}
	}
	return ops
}

func (r *remoteRunner) genInputs() {
	d := newKeyDist(r.spec.keys, r.spec.zipfS)
	r.keyBase = keyBase(r.seed)
	r.costs = genCosts(r.seed, r.keyBase, r.spec.keys)
	r.warm, _ = genOps(newRNG(r.seed, 1), d, opMix{100, 0, 0, 0}, r.spec.warmOps)
	r.streams = make([][]op, r.gens)
	for g := range r.streams {
		r.streams[g] = r.genWindows(g, d)
	}
}

func (r *remoteRunner) setup() error {
	r.genInputs()
	r.base = heapLive()

	r.reg = obs.NewRegistry()
	cfg := engineConfig(policyFactory(servingPolicy, nil), false)
	cfg.Registry, cfg.Shadow, cfg.Namespace = r.reg, true, remoteNS
	r.eng = engine.New(cfg)
	inner := server.EchoBackend(0)
	if size := r.spec.valueBytes; size > 0 {
		inner = func(key uint64, _ replacement.Cost) ([]byte, error) {
			b := make([]byte, size)
			fillValue(b, key, 0)
			return b, nil
		}
	}
	r.backend = &countedBackend{inner: inner}
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Namespaces: []*server.Namespace{{Name: remoteNS, Engine: r.eng, Backend: r.backend.load}},
		Registry:   r.reg,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	r.srv = srv

	// Warm the server's engine the way its dispatcher fills it, without the
	// wire: the timed run is about a full cache, not about getting there.
	load := func(k uint64) (any, replacement.Cost, error) {
		c := r.costs[k-r.keyBase]
		b, err := r.backend.load(k, c)
		return b, c, err
	}
	for _, o := range r.warm {
		if _, err := r.eng.GetOrLoad(r.keyBase+uint64(o.rank), load); err != nil {
			return err
		}
	}

	ring, err := client.NewRing(client.RingConfig{
		Addrs:  []string{srv.Addr().String()},
		Client: client.Config{Conns: r.gens, Timeout: 10 * time.Second},
	})
	if err != nil {
		return err
	}
	r.ring = ring
	r.pos, r.done, r.sent = 0, 0, 0
	r.versions = make([]uint64, r.gens)
	r.tracks = make([]*track, r.gens)
	r.wins = make([][]pendingOp, r.gens)
	for g := range r.wins {
		r.wins[g] = make([]pendingOp, windowOps)
	}
	r.errs.Store(0)
	r.timeouts.Store(0)
	return nil
}

func (r *remoteRunner) teardown() {
	if r.ring != nil {
		r.ring.Close()
		r.ring = nil
	}
	if r.srv != nil {
		if !r.srv.Drain(5 * time.Second) {
			r.srv.Close()
		}
		r.srv = nil
	}
	r.eng = nil
}

func (r *remoteRunner) counts() counts {
	st := r.eng.Stats()
	return counts{Ops: r.done, Lookups: st.Hits + st.Misses, Hits: st.Hits, Cost: st.CostPaid}
}

// slice runs the next windows of every goroutine's stream in lockstep: the
// slice ends when the slowest goroutine has drained its last window.
func (r *remoteRunner) slice() int64 {
	n := r.spec.windows * windowOps
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < r.gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			failed.Add(r.runWindows(g, r.streams[g][r.pos:r.pos+n]))
		}(g)
	}
	wg.Wait()
	r.pos = (r.pos + n) % len(r.streams[0])
	r.done += r.sliceOps()
	r.sent += r.sliceOps()
	return failed.Load()
}

func (r *remoteRunner) fail(err error) int64 {
	r.errs.Add(1)
	if errors.Is(err, client.ErrTimeout) {
		r.timeouts.Add(1)
	}
	return 1
}

// valueOK checks a GETORLOAD or GET reply for key.
func (r *remoteRunner) valueOK(v []byte, key uint64) (ver uint64, ok bool) {
	if r.spec.valueBytes == 0 {
		return 0, len(v) == 8 && binary.BigEndian.Uint64(v) == key
	}
	return checkValue(v, key, r.spec.valueBytes)
}

// runWindows sends goroutine g's ops, a window at a time: the pipelined
// GETORLOADs are all started, then all awaited, then the synchronous Set and
// Get run. It returns the number of failed requests.
func (r *remoteRunner) runWindows(g int, ops []op) (failed int64) {
	t, ring, win := r.tracks[g], r.ring, r.wins[g]
	var setBuf []byte
	if r.spec.valueBytes > 0 {
		setBuf = make([]byte, r.spec.valueBytes)
	}
	pipe := r.spec.pipelined()
	for w := 0; w+windowOps <= len(ops); w += windowOps {
		hw := t.begin(layerBench, spWindow)
		for j := 0; j < pipe; j++ {
			o := &ops[w+j]
			h := t.begin(layerClient, spStart)
			p, node, err := ring.StartGetOrLoad(remoteNS, r.keyBase+uint64(o.rank), int64(r.costs[o.rank]))
			t.end(h)
			win[j].p, win[j].node = p, node
			if err != nil {
				win[j].p = nil
				failed += r.fail(err)
			}
		}
		for j := 0; j < pipe; j++ {
			if win[j].p == nil {
				continue
			}
			key := r.keyBase + uint64(ops[w+j].rank)
			h := t.begin(layerClient, spWait)
			res, err := win[j].p.Wait()
			t.end(h)
			ring.Report(win[j].node, err)
			if err != nil {
				failed += r.fail(err)
			} else if _, ok := r.valueOK(res.Value, key); !ok {
				failed++
			}
		}
		if r.spec.syncOps {
			o := &ops[w+pipe]
			key := r.keyBase + uint64(o.rank)
			r.versions[g]++
			ver := uint64(g+1)<<48 | r.versions[g]
			fillValue(setBuf, key, ver)
			h := t.begin(layerClient, spClientSet)
			err := ring.Set(remoteNS, key, int64(r.costs[o.rank]), setBuf)
			t.end(h)
			if err != nil {
				failed += r.fail(err)
			}
			h = t.begin(layerClient, spClientGet)
			v, hit, err := ring.Get(remoteNS, key)
			t.end(h)
			// A hit must carry this Set's value, unless the entry was
			// evicted and reloaded in between (version 0, the backend's).
			if err != nil {
				failed += r.fail(err)
			} else if got, ok := r.valueOK(v, key); hit && (!ok || (got != ver && got != 0)) {
				failed++
			}
		}
		t.end(hw)
	}
	return failed
}

// canonical interleaves the goroutines' counted windows round-robin into one
// stream an in-process engine can replay: the order a fair scheduler gives.
func (r *remoteRunner) canonical() []op {
	var out []op
	n := len(r.streams[0])
	for w := 0; w < n; w += windowOps {
		for g := range r.streams {
			for _, o := range r.streams[g][w : w+windowOps] {
				if o.kind != opGetOrLoad {
					o.aux = 0 // every Set carries the one stand-in value
				}
				out = append(out, o)
			}
		}
	}
	return out
}

// replayTables are key tables for in-process replays of a remote stream:
// values do not matter there, so every Set shares one stand-in.
func (r *remoteRunner) replayTables() *keyTables {
	return newKeyTables(r.seed, r.spec.keys, 1)
}

func (r *remoteRunner) reference(c *checker, live counts) int64 {
	tab, ops := r.replayTables(), r.canonical()
	a := replayCounts(tab, r.warm, ops, servingPolicy)
	b := replayCounts(tab, r.warm, ops, servingPolicy)
	c.expect(a == b, "counters-repeat", "two in-process replays gave %+v and %+v", a, b)
	// The live run interleaves its goroutines as the scheduler pleases (and
	// two loads of one key may coalesce), so its counters only have to be
	// near the canonical order's.
	near := func(x, y int64) bool { return math.Abs(float64(x-y)) <= 0.05*float64(y) }
	c.expect(near(live.Lookups, a.Lookups) && near(live.Hits, a.Hits) && near(live.Cost, a.Cost), "live-near-replay",
		"live %+v strays over 5%% from the canonical replay %+v", live, a)
	return replayCounts(tab, r.warm, ops, "LRU").Cost
}

func (r *remoteRunner) finalChecks(c *checker) {
	st := r.eng.Stats()
	want := int64(len(r.warm)) + r.sent
	c.expect(st.Hits+st.Misses+st.Coalesced == want, "lookups-add-up",
		"hits %d + misses %d + coalesced %d != %d warm-up loads and requests", st.Hits, st.Misses, st.Coalesced, want)
	ws, err := r.ring.Stats(remoteNS)
	c.expect(err == nil, "stats-frame", "STATS failed: %v", err)
	c.expect(ws.Hits == st.Hits && ws.Misses == st.Misses && ws.CostPaid == st.CostPaid, "stats-agree",
		"STATS over the wire %+v disagrees with the engine %+v", ws, st)
	// Every request frame is answered by exactly one response frame; the
	// client's own frames are one PING per pooled connection and the STATS
	// request above.
	frames := r.sent + int64(r.gens) + 1
	in, out := r.reg.Counter("server_frames_in").Value(), r.reg.Counter("server_frames_out").Value()
	c.expect(in == frames && out == frames, "frames-add-up", "frames in %d, out %d, want %d (requests + pings + stats)", in, out, frames)
	c.expect(r.reg.Counter("server_shed").Value() == 0, "nothing-shed", "server shed %d requests", r.reg.Counter("server_shed").Value())
	c.expect(r.errs.Load() == 0, "no-errors", "%d requests failed (%d timeouts)", r.errs.Load(), r.timeouts.Load())
}
