package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"

	"costcache/internal/wire"
)

// rawFrame is a frame decoded in place: payload aliases the reader's buffer
// until the frame is released.
type rawFrame struct {
	op, flags uint8
	id        uint64
	payload   []byte
	size      int // bytes to discard on release
}

// peekFrame decodes the next frame of the wire protocol without copying or
// allocating (wire.ReadFrame's header array escapes to the heap, one
// allocation per frame, which would be charged to whatever a raw probe
// measures). The frame must fit the reader's buffer.
func peekFrame(r *bufio.Reader, f *rawFrame) error {
	const header = 16 // length, version, op, flags, nslen, id
	hdr, err := r.Peek(header)
	if err != nil {
		return err
	}
	length := int(binary.BigEndian.Uint32(hdr))
	nslen := int(hdr[7])
	if length < header-4+nslen || 4+length > r.Size() {
		return fmt.Errorf("bench: frame of %d bytes does not fit the raw reader", length)
	}
	f.op, f.flags, f.id = hdr[5], hdr[6], binary.BigEndian.Uint64(hdr[8:])
	f.size = 4 + length
	all, err := r.Peek(f.size)
	if err != nil {
		return err
	}
	f.payload = all[header+nslen:]
	return nil
}

// release consumes the frame peekFrame returned.
func (f *rawFrame) release(r *bufio.Reader) {
	r.Discard(f.size) // cannot fail: the bytes were just peeked
}

// rawConn is the benchmark's own client: one connection, requests written a
// window at a time from a reused buffer, responses decoded in place. It is
// built from net and wire alone, so a probe through it has internal/client
// off the path, and it allocates nothing in steady state, so every
// allocation a raw probe sees is the server's.
type rawConn struct {
	nc   net.Conn
	r    *bufio.Reader
	wbuf []byte
	pbuf []byte
	req  wire.Frame
	resp rawFrame
	id   uint64
}

func dialRaw(addr, ns string) (*rawConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{
		nc: nc, r: bufio.NewReaderSize(nc, 64<<10), wbuf: make([]byte, 0, 64<<10),
		req: wire.Frame{Version: wire.Version, Op: wire.OpGetOrLoad, NS: ns},
	}, nil
}

func (c *rawConn) close() { c.nc.Close() }

// window sends one GETORLOAD per key in a single write and reads as many
// responses. check, when non-nil, is given every response's key and value.
func (c *rawConn) window(keys []uint64, costs []int64, check func(key uint64, value []byte) bool) (failed int64, err error) {
	c.wbuf = c.wbuf[:0]
	first := c.id + 1
	for i, k := range keys {
		c.id++
		c.pbuf = wire.AppendGetOrLoadReq(c.pbuf[:0], k, costs[i])
		c.req.ID, c.req.Payload = c.id, c.pbuf
		c.wbuf = wire.AppendFrame(c.wbuf, &c.req)
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return 0, err
	}
	for range keys {
		if err := peekFrame(c.r, &c.resp); err != nil {
			return failed, err
		}
		i := c.resp.id - first // responses may arrive out of order
		if c.resp.flags&wire.FlagError != 0 || i >= uint64(len(keys)) {
			failed++
		} else if _, value, err := wire.ParseGetOrLoadResp(c.resp.payload); err != nil || (check != nil && !check(keys[i], value)) {
			failed++
		}
		c.resp.release(c.r)
	}
	return failed, nil
}

// echoServer is the benchmark's stand-in for the loopback path alone: it
// decodes each request in place and answers it at once with a fixed-size
// GETORLOAD response, with no engine, no dispatch goroutine and no backend
// behind it. What a raw probe costs against it is what the kernel's loopback,
// the scheduler and framing at its cheapest cost.
type echoServer struct {
	ln   net.Listener
	wg   sync.WaitGroup
	size int // value bytes per response

	mu    sync.Mutex
	conns []net.Conn
}

func startEcho(valueBytes int) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln, size: valueBytes}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

func (s *echoServer) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns = append(s.conns, nc)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(nc)
	}
}

func (s *echoServer) serve(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	r := bufio.NewReaderSize(nc, 64<<10)
	w := bufio.NewWriterSize(nc, 64<<10)
	value := make([]byte, s.size)
	var req rawFrame
	resp := wire.Frame{Version: wire.Version, Flags: wire.FlagHit}
	var payload, out []byte
	for {
		if err := peekFrame(r, &req); err != nil {
			return
		}
		_, _, err := wire.ParseGetOrLoadReq(req.payload)
		req.release(r)
		if err != nil {
			return
		}
		payload = wire.AppendGetOrLoadResp(payload[:0], 0, value)
		resp.Op, resp.ID, resp.Payload = req.op, req.id, payload
		out = wire.AppendFrame(out[:0], &resp)
		if _, err := w.Write(out); err != nil {
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// stop closes the listener and every connection and waits for the
// goroutines to end.
func (s *echoServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// rawProbe drives addr with the workload's GETORLOAD keys through one
// rawConn per generator goroutine, windowOps requests per write, and returns
// per-op times (one per slice of windows), failures and ops.
func rawProbe(r *remoteRunner, addr, ns string, budget float64, check bool) (perOp []float64, failed, ops int64, err error) {
	conns := make([]*rawConn, r.gens)
	for g := range conns {
		if conns[g], err = dialRaw(addr, ns); err != nil {
			return nil, 0, 0, err
		}
		defer conns[g].close()
	}
	const windows = 32
	per := windows * windowOps
	var verify func(uint64, []byte) bool
	if check {
		verify = func(key uint64, v []byte) bool { _, ok := r.valueOK(v, key); return ok }
	}
	// Each goroutine replays its stream's GETORLOADs (Set and Get have no
	// place on the raw path: its point is the dispatched op).
	keys := make([][]uint64, r.gens)
	costs := make([][]int64, r.gens)
	for g, s := range r.streams {
		for _, o := range s {
			if o.kind == opGetOrLoad {
				keys[g] = append(keys[g], r.keyBase+uint64(o.rank))
				costs[g] = append(costs[g], int64(r.costs[o.rank]))
			}
		}
	}
	pos := 0
	var firstErr error
	var mu sync.Mutex
	perOp = timeLoop(budget, 5, per*r.gens, func() {
		var wg sync.WaitGroup
		for g := range conns {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var f int64
				for w := 0; w < windows; w++ {
					lo := (pos + w*windowOps) % (len(keys[g]) - windowOps)
					n, err := conns[g].window(keys[g][lo:lo+windowOps], costs[g][lo:lo+windowOps], verify)
					f += n
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				failed += f
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		pos += per
		ops += int64(per * r.gens)
	})
	return perOp, failed, ops, firstErr
}

// seqRTT measures one-at-a-time raw round trips in slices of 1000 and
// returns each slice's median and 99th percentile in microseconds.
func seqRTT(r *remoteRunner, addr string, samples int) (p50s, p99s []float64, err error) {
	c, err := dialRaw(addr, remoteNS)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	const per = 1000
	lat := make([]float64, per)
	keys, costs := make([]uint64, 1), make([]int64, 1)
	s := r.streams[0]
	for done := 0; done < samples; done += per {
		for i := range lat {
			o := s[(done+i)%len(s)]
			keys[0], costs[0] = r.keyBase+uint64(o.rank), int64(r.costs[o.rank])
			t0 := now()
			if _, err := c.window(keys, costs, nil); err != nil {
				return nil, nil, err
			}
			lat[i] = float64(now()-t0) / 1e3
		}
		sort.Float64s(lat)
		p50s = append(p50s, lat[per/2])
		p99s = append(p99s, lat[per*99/100])
	}
	return p50s, p99s, nil
}

// codecProbe replays one window's exact frame mix through the wire codec on
// an in-memory reader: every request and response encoded as the peers
// encode them and decoded as they decode them. It returns per-frame encode
// and decode times and allocations, and the bytes one op puts on the wire.
func codecProbe(r *remoteRunner, budget float64) (encNs, decNs, allocsPerFrame, bytesPerOp float64) {
	value := make([]byte, r.spec.valueSize()) // the codec does not look inside values
	key, c := r.keyBase+1, int64(costHigh)
	var buf, payload []byte
	frames := 0
	encode := func() {
		buf = buf[:0]
		frames = 0
		put := func(f wire.Frame) {
			f.Version = wire.Version
			buf = wire.AppendFrame(buf, &f)
			frames++
		}
		for j := 0; j < r.spec.pipelined(); j++ {
			payload = wire.AppendGetOrLoadReq(payload[:0], key, c)
			put(wire.Frame{Op: wire.OpGetOrLoad, NS: remoteNS, ID: uint64(j), Payload: payload})
			payload = wire.AppendGetOrLoadResp(payload[:0], c, value)
			put(wire.Frame{Op: wire.OpGetOrLoad, ID: uint64(j), Payload: payload})
		}
		if r.spec.syncOps {
			payload = wire.AppendSetReq(payload[:0], key, c, value)
			put(wire.Frame{Op: wire.OpSet, NS: remoteNS, Payload: payload})
			put(wire.Frame{Op: wire.OpSet})
			payload = wire.AppendGetReq(payload[:0], key)
			put(wire.Frame{Op: wire.OpGet, NS: remoteNS, Payload: payload})
			put(wire.Frame{Op: wire.OpGet, Flags: wire.FlagHit, Payload: value})
		}
	}
	encode()
	bytesPerOp = float64(len(buf)) / windowOps
	var f wire.Frame
	rd := bytes.NewReader(nil)
	decode := func() {
		rd.Reset(buf)
		for i := 0; i < frames; i++ {
			if err := wire.ReadFrame(rd, 0, &f); err != nil {
				panic(err) // the probe encoded these frames itself
			}
			var err error
			switch {
			case f.Op == wire.OpGetOrLoad && f.NS != "":
				_, _, err = wire.ParseGetOrLoadReq(f.Payload)
			case f.Op == wire.OpGetOrLoad:
				_, _, err = wire.ParseGetOrLoadResp(f.Payload)
			case f.Op == wire.OpSet && f.NS != "":
				_, _, _, err = wire.ParseSetReq(f.Payload)
			case f.Op == wire.OpGet && f.NS != "":
				_, err = wire.ParseGetReq(f.Payload)
			}
			if err != nil {
				panic(err)
			}
		}
	}
	const reps = 200
	res0 := readResources()
	var windows int
	enc := timeLoop(budget/2, 5, reps*frames, func() {
		for i := 0; i < reps; i++ {
			encode()
		}
		windows += reps
	})
	dec := timeLoop(budget/2, 5, reps*frames, func() {
		for i := 0; i < reps; i++ {
			decode()
		}
		windows += reps
	})
	res1 := readResources()
	return median(enc), median(dec), float64(res1.mallocs-res0.mallocs) / float64(windows*frames), bytesPerOp
}

// traceRemote produces the per-layer metrics of a loopback server workload.
//
// The per-op time of the end-to-end path (client.Ring to server.Server) is
// broken down with four measurements that are each made on their own:
//
//	T  the client path, untraced                 (this run's baseline)
//	R  the raw path: rawConn in place of client  (rawProbe on the server)
//	L  the loopback path: rawConn to echoServer  (rawProbe on the echo)
//	E, B, W  the engine replaying the same ops in-process, the backend
//	   per load, and the codec per frame
//
// so that client overhead = T-R, server self = R-L-E-B, and the loopback's
// remainder = L-W. The shares are printed, the remainder included.
func traceRemote(spec remoteSpec, seed uint64, seconds float64, res *runResult, c *checker) error {
	m := res.Metrics
	r := newRemoteRunner(spec, seed)
	if err := r.setup(); err != nil {
		return err
	}
	defer r.teardown()
	var failed, attempted int64
	peak := runtime.NumGoroutine()
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}

	// T: the client path, recorder off.
	res0 := readResources()
	base := timeLoop(seconds*0.2, 5, int(r.sliceOps()), func() { failed += r.slice(); sample() })
	res1 := readResources()
	baseOps := float64(len(base)) * float64(r.sliceOps())
	attempted += int64(baseOps)
	T := median(base)
	m.setGC(res0, res1)
	clientPathAllocs := float64(res1.mallocs-res0.mallocs) / baseOps

	// Traced client path: spans around every client call, and the backend.
	cc := calibrateClock()
	backendSpans := &sharedTrack{t: newTrack(1 << 18)}
	r.backend.spans.Store(backendSpans)
	for g := range r.tracks {
		r.tracks[g] = newTrack(1 << 19)
	}
	table := &spanTable{}
	loads0 := r.backend.loads.Load()
	var tracedOps int64
	traced := timeLoop(seconds*0.15, 3, int(r.sliceOps()), func() {
		for _, t := range r.tracks {
			t.reset()
		}
		failed += r.slice()
		table.add(aggregate(cc, r.tracks...))
		tracedOps += r.sliceOps()
		sample()
	})
	attempted += tracedOps
	r.backend.spans.Store(nil)
	tracedLoads := r.backend.loads.Load() - loads0
	// Each generator goroutine's time is tiled by its own spans: what they
	// cover of the time it spends per op untraced is the tiling share.
	covered := table.totalSelf()
	goroutineNs := T * float64(r.gens) // what one op takes of a generator goroutine, untraced
	table.add(aggregate(clockCost{}, backendSpans.t))
	c.expect(table.dropped == 0, "spans-fit", "%d spans dropped by a full track", table.dropped)
	written, err := writeSpans(spanPath(spec.name), append(append([]*track(nil), r.tracks...), backendSpans.t)...)
	if err != nil {
		return err
	}
	for g := range r.tracks {
		r.tracks[g] = nil
	}
	m.set("trace.overhead_pct", 100*(median(traced)-T)/T)
	m.set("trace.spans", float64(table.spans))
	m.set("trace.tiling_share", covered/(goroutineNs*float64(tracedOps)))
	m.set("client.start_ns", table.get(layerClient, spStart).mean())
	m.set("client.wait_ns", table.get(layerClient, spWait).mean())
	perLoad := 0.0 // no load ran: no time was spent in the backend
	if tracedLoads > 0 {
		perLoad = float64(r.backend.ns.Load()) / float64(tracedLoads)
	}
	B := perLoad * float64(tracedLoads) / float64(tracedOps)
	m.set("server.backend_ns_per_load", perLoad)
	m.set("server.backend_loads", float64(tracedLoads))

	// R: the raw path against the same server.
	addr := r.srv.Addr().String()
	raw0 := readResources()
	raw, rawFailed, rawOps, err := rawProbe(r, addr, remoteNS, seconds*0.15, true)
	if err != nil {
		return fmt.Errorf("raw probe: %w", err)
	}
	raw1 := readResources()
	sample()
	failed += rawFailed
	attempted += rawOps
	R := median(raw)
	rawAllocs := float64(raw1.mallocs-raw0.mallocs) / float64(rawOps)
	m.setMedian("server.raw_ns_per_op", raw)
	m.set("server.raw_allocs_per_op", rawAllocs)
	rtts := int(2000 * seconds) // 20k samples in a full-length run
	if rtts < 1000 {
		rtts = 1000
	}
	p50s, p99s, err := seqRTT(r, addr, rtts)
	if err != nil {
		return fmt.Errorf("sequential round trips: %w", err)
	}
	attempted += int64(len(p50s) * 1000)
	m.setMedian("server.rtt_seq_p50_us", p50s)
	m.setMedian("server.rtt_seq_p99_us", p99s)
	m.set("server.rtt_seq_iqr_pct", 100*spread(p50s))
	m.set("server.frames_in", float64(r.reg.Counter("server_frames_in").Value()))
	m.set("server.frames_out", float64(r.reg.Counter("server_frames_out").Value()))
	m.set("server.shed", float64(r.reg.Counter("server_shed").Value()))
	m.set("server.goroutines_peak", float64(peak))
	m.set("client.errors", float64(r.errs.Load()))
	m.set("client.timeouts", float64(r.timeouts.Load()))

	// L: the loopback path alone.
	echo, err := startEcho(spec.valueSize())
	if err != nil {
		return err
	}
	loop, _, _, err := rawProbe(r, echo.addr(), remoteNS, seconds*0.1, false)
	echo.stop()
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	L := median(loop)
	m.setMedian("net.loopback_ns_per_op", loop)

	// W: the codec on this workload's frames.
	encNs, decNs, codecAllocs, bytesPerOp := codecProbe(r, seconds*0.05)
	m.set("wire.encode_ns_per_frame", encNs)
	m.set("wire.decode_ns_per_frame", decNs)
	m.set("wire.allocs_per_frame", codecAllocs)
	m.set("wire.bytes_per_op", bytesPerOp)
	W := 2 * (encNs + decNs) // a request and a response, each encoded once and decoded once

	// E: the engine replaying the canonical order in-process, traced the
	// way the engine workloads are.
	tab, ops := r.replayTables(), r.canonical()
	t := newTrack(1 << 20)
	in := newEngineInst(tab, engineConfig(policyFactory(servingPolicy, func() *track { return t }), true), nil)
	in.run(r.warm)
	in.t = t
	replayOps := 1 << 16
	if replayOps > len(ops) {
		replayOps = len(ops)
	}
	etab := &spanTable{}
	var replayed int64
	j := 0
	timeLoop(seconds*0.1, 3, replayOps, func() {
		t.reset()
		lo := (j * replayOps) % (len(ops) - replayOps + 1)
		in.run(ops[lo : lo+replayOps])
		etab.add(aggregate(cc, t))
		replayed += int64(replayOps)
		j++
	})
	engineLayerMetrics(m, etab, replayed)
	engineCounterMetrics(m, r.eng.Stats())
	E := (etab.layerSelf(layerEngine) + etab.layerSelf(layerReplacement)) / float64(replayed)

	// The client's ring lookup on its own.
	rp := timeLoop(seconds*0.02, 5, len(r.warm), func() {
		for _, o := range r.warm {
			r.ring.Pick(r.keyBase + uint64(o.rank))
		}
	})
	m.setMedian("client.ring_pick_ns", rp)

	clientNs, serverNs, netNs := T-R, R-L-E-B, L-W
	m.set("client.overhead_ns_per_op", clientNs)
	m.set("client.allocs_per_op", clientPathAllocs-rawAllocs)
	m.set("server.self_ns_per_op", serverNs)
	m.set("net.residual_ns_per_op", netNs)
	m.set("net.residual_share", netNs/T)

	fmt.Printf("  traced %d ops, %d spans (%d written to %s); clock cost %.1f ns inside a span, %.1f ns per pair\n",
		tracedOps, table.spans, written, spanPath(spec.name), cc.inside, cc.pair)
	table.print(tracedOps, goroutineNs)
	fmt.Printf("  per-op time of the client path, %d goroutines x %d-deep windows: %.0f ns\n", r.gens, spec.pipelined(), T)
	for _, row := range []struct {
		layer string
		ns    float64
		how   string
	}{
		{"client", clientNs, "client path - raw path"},
		{"server", serverNs, "raw path - loopback path - engine - backend"},
		{"engine", E, "in-process replay, hooks included"},
		{"backend", B, "backend decorator, per load x loads per op"},
		{"wire", W, "codec probe, 2 frames encoded and decoded"},
		{"net", netNs, "loopback path - codec: kernel and scheduler remainder"},
	} {
		fmt.Printf("  %-8s %10.0f ns %6.1f%%  %s\n", row.layer, row.ns, 100*row.ns/T, row.how)
	}

	res.Attempted, res.Failed = attempted, failed
	flagNoisy(res, c, base)
	// The probes' own frames are accounted for, so the frame check still
	// holds: requests through the ring, pings, raw probe frames.
	r.sent += rawOps + int64(len(p50s)*1000)
	r.finalChecks(c)
	return nil
}
