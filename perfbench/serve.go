package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/obs"
	"figret/internal/serve"
	"figret/internal/tracestore"
	"figret/internal/wire"
)

// serveSizes sizes a serve workload. The defaults are cmd/served's.
type serveSizes struct {
	topo                string
	T, H, epochs, batch int
	hidden              []int // nil keeps figret's 5×128
	setups              int   // full set-ups per run; setup_s is their median
	chunk               int   // requests per pipelined Stream call
	sampleEvery         int64 // every n-th snapshot's decision is replayed offline
}

func serveSizesFor(opt options, ingest bool) serveSizes {
	s := serveSizes{topo: "geant", T: 200, H: 12, epochs: 6, batch: 16, setups: 3, chunk: 2048, sampleEvery: 64}
	if ingest {
		s.chunk = 8192
	}
	if opt.trace {
		s.setups = 1 // set-up time is an end-to-end metric; traced runs report spans of one
	}
	if opt.tiny {
		s.T, s.H, s.epochs, s.hidden, s.setups, s.chunk, s.sampleEvery = 48, 4, 1, []int{16}, 1, 256, 8
	}
	return s
}

// serveStack is one served topology wired as cmd/served wires it, plus
// one binary-stream client.
type serveStack struct {
	sz     serveSizes
	env    *experiments.Env
	reg    *serve.Registry
	srv    *serve.Server
	oracle *eval.Oracle
	hs     *http.Server
	served chan error
	bin    *serve.BinClient
	spool  string
	gen    *demandGen
	// next is the absolute index of the next snapshot to send; the
	// server numbers snapshots in arrival order from 0.
	next int64

	trainSeconds float64
	trainSamples int
	trainSteps   int
}

// startServe builds the environment, the server with telemetry and a
// drift detector backed by an eval.Oracle, trains and installs the
// bootstrap checkpoint, starts a loopback listener, dials the binary
// stream and warms the window until the next snapshot decides.
func startServe(r *run, sz serveSizes, spool string, parent int) (*serveStack, error) {
	s := &serveStack{sz: sz, spool: spool, served: make(chan error, 1)}
	id := r.tr.begin("experiments.new_env", parent, 0)
	env, err := experiments.NewEnv(sz.topo, experiments.ScaleFast, experiments.EnvOptions{T: sz.T, Seed: r.opt.seed})
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	s.env = env
	s.gen = newDemandGen(env.Trace, r.opt.seed)

	metrics := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(metrics)
	tel := serve.NewTelemetry(metrics)
	s.reg = serve.NewRegistry()
	s.srv = serve.NewServer(s.reg)
	s.srv.UseTelemetry(tel)
	if err := s.reg.AddTopology(sz.topo, env.PS); err != nil {
		return nil, err
	}
	s.oracle = eval.NewOracle(env.PS, baselines.AutoSolve(env.PS), nil)
	tel.RegisterCacheStats("oracle", sz.topo, s.oracle.Stats)
	if _, err := s.srv.Add(sz.topo, serve.ControllerOptions{
		HistoryCap: 256,
		Spool:      spool,
		Drift:      &serve.DriftOptions{Oracle: s.oracle},
	}); err != nil {
		return nil, err
	}

	m := figret.New(env.PS, figret.Config{H: sz.H, Gamma: 1, Epochs: sz.epochs, Seed: r.opt.seed, BatchSize: sz.batch, Hidden: sz.hidden})
	id = r.tr.begin("figret.train", parent, 0)
	t0 := time.Now()
	_, err = m.Train(env.Train)
	s.trainSeconds = time.Since(t0).Seconds()
	r.tr.end(id)
	if err != nil {
		s.close()
		return nil, err
	}
	windows := env.Train.Len() - sz.H
	s.trainSamples = windows * sz.epochs
	s.trainSteps = sz.epochs * ((windows + sz.batch - 1) / sz.batch)
	if _, err := s.reg.Install(sz.topo, m, "bootstrap"); err != nil {
		s.close()
		return nil, err
	}

	id = r.tr.begin("serve.start", parent, 0)
	defer r.tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.bin, err = serve.DialBin("http://"+ln.Addr().String(), sz.topo, env.PS, serve.BinClientOptions{})
	if err != nil {
		s.close()
		return nil, err
	}
	// The first H-1 snapshots only fill the window; snapshot H-1 is the
	// first that decides, and the first timed request.
	for s.next < int64(sz.H-1) {
		rr, err := s.bin.PostSnapshot(s.gen.at(s.next))
		if err != nil {
			s.close()
			return nil, err
		}
		if !rr.Warming {
			s.close()
			return nil, fmt.Errorf("snapshot %d decided before the window filled", s.next)
		}
		s.next++
	}
	return s, nil
}

// close stops the client, the controllers (the spool is synced and
// closed with its controller) and the listener, and waits for them.
func (s *serveStack) close() {
	if s.bin != nil {
		s.bin.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	if s.hs != nil {
		s.hs.Shutdown(ctx)
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: listener: %v\n", err)
		}
	}
}

// decisionSample is a served decision kept for the offline replay check.
type decisionSample struct {
	snapshot int64
	version  int
	ratios   []float64
}

// serveCheck validates one served decision for snapshot idx and keeps it
// for the bitwise replay when idx is on the sampling grid.
type serveCheck struct {
	r           *run
	pairPaths   [][]int
	sampleEvery int64
	samples     []decisionSample
	corrupted   bool
}

func (c *serveCheck) decision(idx, snapshot int64, version int, warming bool, ratios []float64) {
	c.check(idx, snapshot, version, warming, ratios, idx%c.sampleEvery == 0)
}

// check is decision with the sampling choice made by the caller.
func (c *serveCheck) check(idx, snapshot int64, version int, warming bool, ratios []float64, sample bool) {
	if c.r.opt.corrupt == "decision" && !c.corrupted && len(ratios) > 0 {
		ratios[0] += 1e-6 // self-test: a damaged decision must be counted
		c.corrupted = true
	}
	ok := !warming && snapshot == idx && validRatios(c.pairPaths, ratios)
	c.r.op(ok, "decision for snapshot %d: got snapshot %d, warming %v, or ratios not a per-pair distribution", idx, snapshot, warming)
	if ok && sample {
		c.samples = append(c.samples, decisionSample{idx, version, append([]float64(nil), ratios...)})
	}
}

// phase is one measured stretch of a serve workload.
type phase struct {
	latMS      []float64 // depth-1 round trips
	rates      []float64 // per pipelined chunk, responses per second
	rttP50     []float64 // per chunk, ms
	rttP99     []float64
	requests   int
	ops        int // decisions (serve-wan) or acknowledged snapshots (serve-ingest)
	windowMax  int
	congestion int
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
}

// depth1 runs the closed loop: post one snapshot, wait for the decision
// it installs, repeat until the deadline.
func (s *serveStack) depth1(r *run, chk *serveCheck, until time.Time, ph *phase) {
	for time.Now().Before(until) {
		idx := s.next
		d := s.gen.at(idx)
		id := r.tr.begin("serve.post_snapshot", -1, idx)
		t0 := time.Now()
		rr, err := s.bin.PostSnapshot(d)
		lat := time.Since(t0)
		r.tr.end(id)
		s.next++
		ph.requests++
		if err != nil {
			r.op(false, "snapshot %d: %v", idx, err)
			continue
		}
		ph.latMS = append(ph.latMS, float64(lat)/1e6)
		ph.ops++
		chk.decision(idx, rr.Snapshot, rr.Version, rr.Warming, rr.Ratios)
	}
}

// pipelined streams chunks of sz.chunk snapshots until the deadline (at
// least one chunk). A chunk that aborts counts all its requests failed
// and ends the phase: after a broken stream the server's numbering is
// unknown.
func (s *serveStack) pipelined(r *run, chk *serveCheck, async bool, until time.Time, ph *phase) {
	name := "serve.stream"
	if async {
		name = "serve.stream_async"
	}
	for first := true; first || time.Now().Before(until); first = false {
		base := s.next
		demand := func(i int) []float64 { return s.gen.at(base + int64(i)) }
		id := r.tr.begin(name, -1, base)
		var st *serve.StreamStats
		var err error
		if async {
			st, err = s.bin.StreamAsync(s.sz.chunk, demand)
		} else {
			st, err = s.bin.Stream(s.sz.chunk, demand, func(i int, d *wire.Decision) {
				chk.decision(base+int64(i), d.Snapshot, d.Version, d.Warming, d.Ratios)
			})
		}
		r.tr.end(id)
		s.next += int64(s.sz.chunk)
		ph.requests += s.sz.chunk
		if err != nil {
			// Decisions already answered were checked one by one; every
			// request left unanswered is a failed operation.
			answered := 0
			if st != nil {
				answered = st.Decisions
			}
			lost := s.sz.chunk - answered
			r.attempted += lost
			r.fail("stream chunk at snapshot %d: %v", base, err)
			r.failed += lost - 1
			return
		}
		n := st.Decisions
		if async {
			n = st.Acks
			r.attempted += s.sz.chunk
			if lost := s.sz.chunk - st.Acks; lost > 0 {
				r.fail("async chunk at snapshot %d: %d acks, %d decisions for %d snapshots", base, st.Acks, st.Decisions, s.sz.chunk)
				r.failed += lost - 1
			}
		}
		ph.ops += n
		ph.rates = append(ph.rates, float64(n)/st.Elapsed.Seconds())
		ph.rttP50 = append(ph.rttP50, st.P50RTTMicros/1e3)
		ph.rttP99 = append(ph.rttP99, st.P99RTTMicros/1e3)
		ph.windowMax = max(ph.windowMax, st.MaxWindow)
		ph.congestion += st.CongestionEvents
	}
}

// measure runs one measured stretch of the workload.
func (s *serveStack) measure(r *run, chk *serveCheck, ingest bool, seconds float64) *phase {
	ph := &phase{}
	// Garbage left by set-up or by the previous stretch is collected
	// before timing starts, so every stretch begins from the same heap
	// state and GC cycles fall at the same points of the workload.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if ingest {
		s.pipelined(r, chk, true, deadline(seconds), ph)
	} else {
		s.depth1(r, chk, deadline(0.5*seconds), ph)
		s.pipelined(r, chk, false, deadline(0.5*seconds), ph)
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return ph
}

// runServe is the serve-wan (ingest=false) and serve-ingest (ingest=true)
// workload.
func runServe(r *run, ingest bool) error {
	sz := serveSizesFor(r.opt, ingest)
	tracer := (*tracer)(nil)
	if r.opt.trace {
		tracer = newTracer()
	}
	r.tr = tracer

	var setupS, trainRates, stepUS []float64
	var st *serveStack
	var spools []string
	defer func() {
		for _, dir := range spools {
			os.RemoveAll(dir)
		}
	}()
	for i := 0; i < sz.setups; i++ {
		if st != nil {
			// Each set-up starts from the same heap: the superseded stack
			// is stopped and its garbage collected first.
			st.close()
			st = nil
			runtime.GC()
		}
		spool := ""
		if ingest {
			dir, err := os.MkdirTemp(r.opt.out, "spool-")
			if err != nil {
				return err
			}
			spools = append(spools, dir)
			spool = dir
		}
		root := r.tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		s, err := startServe(r, sz, spool, root)
		el := time.Since(t0)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, el.Seconds())
		trainRates = append(trainRates, float64(s.trainSamples)/s.trainSeconds)
		stepUS = append(stepUS, s.trainSeconds*1e6/float64(s.trainSteps))
		st = s
	}

	chk := &serveCheck{r: r, pairPaths: st.env.PS.PairPaths, sampleEvery: sz.sampleEvery}
	var ph, traced *phase
	if r.opt.trace {
		// The same workload untraced, then traced: the difference is the
		// tracing overhead.
		r.tr = nil
		ph = st.measure(r, chk, ingest, r.opt.seconds/2)
		r.tr = tracer
		traced = st.measure(r, chk, ingest, r.opt.seconds/2)
	} else {
		ph = st.measure(r, chk, ingest, r.opt.seconds)
	}
	if ingest {
		// A sync snapshot is a barrier: the controller processes in
		// order, so once it answers every acknowledged snapshot before it
		// is in the window and the spool.
		idx := st.next
		rr, err := st.bin.PostSnapshot(st.gen.at(idx))
		st.next++
		if err != nil {
			r.op(false, "barrier snapshot %d: %v", idx, err)
		} else {
			// Always replayed: its window is made of async snapshots only.
			chk.check(idx, rr.Snapshot, rr.Version, rr.Warming, rr.Ratios, true)
		}
	}
	rss := peakRSSMB() // before the checks read the whole spool back
	ctrl := st.srv.Controller(sz.topo).Metrics()
	checkReplay(r, st, chk.samples)
	active := st.reg.Active(sz.topo)
	st.close()
	if ingest {
		checkSpool(r, st)
	}

	if !r.opt.trace {
		r.setE2E("setup_s", median(setupS), "s", len(setupS), "env (paths + trace) + bootstrap training + server start + dial + window warm-up, median of set-ups")
		r.report("train_samples_per_s", median(trainRates), "1/s", len(trainRates), "bootstrap Model.Train windows consumed per second, median of set-ups (gated through setup_s)")
		if ingest {
			r.setE2E("ops_per_s", median(ph.rates), "1/s", len(ph.rates), fmt.Sprintf("ingest_per_s: acknowledged async snapshots per wall second, median of %d-snapshot chunks (%d snapshots)", sz.chunk, ph.ops))
			r.setE2E("op_p50_ms", median(ph.rttP50), "ms", ph.ops, "send-to-ack round trip in the pipelined async stream, median of chunk p50s")
			r.report("op_p99_ms", median(ph.rttP99), "ms", ph.ops, "send-to-ack round trip in the pipelined async stream, median of chunk p99s")
		} else {
			r.setE2E("ops_per_s", median(ph.rates), "1/s", len(ph.rates), fmt.Sprintf("decisions_per_s: pipelined Stream decisions per wall second, median of %d-request chunks (%d decisions)", sz.chunk, ph.ops))
			n := len(ph.latMS)
			r.report("op_p99_ms", blockP99(ph.latMS), "ms", n, fmt.Sprintf("decision_p99_ms: depth-1 sync decision round trip, median of the p99s of %d-decision blocks", p99Block))
			r.setE2E("op_p50_ms", quantile(ph.latMS, 0.5), "ms", n, "decision_p50_ms: depth-1 sync decision round trip")
		}
		r.setE2E("peak_rss_mb", rss, "MB", 1, "process peak resident set size, set-ups and measurement")
		r.report("retrains", float64(ctrl.Retrains+ctrl.RetrainsRejected+ctrl.RetrainsFailed), "count", 1, "drift-triggered retrains (0 expected)")
		return nil
	}

	// Traced run: per-layer metrics.
	perOp := float64(max(ph.ops, 1))
	r.setLayer("runtime.allocs_per_op", float64(ph.mallocs)/perOp, "count", ph.ops, "heap allocations per operation, untraced stretch")
	r.setLayer("runtime.alloc_bytes_per_op", float64(ph.allocBytes)/perOp, "bytes", ph.ops, "heap bytes allocated per operation, untraced stretch")
	r.setLayer("runtime.gc_pause_ms", float64(ph.gcPauseNs)/1e6, "ms", ph.ops, "total GC pause in the untraced stretch")
	r.setLayer("serve.rtt_p50_ms", median(ph.rttP50), "ms", ph.requests, "pipelined stream round trip p50 (StreamStats), median of chunks")
	r.setLayer("serve.window_max", float64(ph.windowMax), "count", len(ph.rates), "largest adaptive in-flight window (StreamStats)")
	r.setLayer("serve.congestion_events", float64(ph.congestion), "count", len(ph.rates), "window backoffs in the untraced stretch (StreamStats)")
	r.setLayer("serve.coalesced_frac", float64(ctrl.Coalesced)/float64(max(ctrl.Snapshots, 1)), "ratio", int(ctrl.Snapshots), "snapshots that entered the window without their own decision")
	r.setLayer("serve.retrains", float64(ctrl.Retrains+ctrl.RetrainsRejected+ctrl.RetrainsFailed), "count", 1, "drift-triggered retrains, any outcome (0 expected)")
	hits, misses := st.oracle.Stats()
	r.setLayer("eval.oracle_hit_frac", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses), "drift oracle hits / lookups")
	r.setLayer("figret.train_step_us", median(stepUS), "us", len(stepUS), "bootstrap Model.Train seconds per minibatch step")
	overheadPrimary(r, ph, traced, ingest)
	notExercised(r, "serve workloads run no offline evaluation",
		"eval.mlu_norm_mean", "ratio", "eval.severe_frac", "ratio", "eval.snapshots_per_s", "1/s")

	if active == nil {
		return fmt.Errorf("no active checkpoint after the run")
	}
	in := layerInputs{
		ps: st.env.PS, g: st.env.G, topo: sz.topo, T: sz.T, seed: r.opt.seed,
		model: active.Model, batch: sz.batch, windows: st.gen.trace(0, int64(sz.H+replayReps+1)),
	}
	replayLayers(r, in)
	if !ingest {
		p50 := median(ph.latMS) * 1e3
		layered := r.layers["serve.controller_us"].Value + r.layers["figret.predict_us"].Value +
			r.layers["wire.encode_us"].Value + r.layers["wire.decode_us"].Value + r.layers["wire.snapshot_decode_us"].Value
		r.setLayer("serve.unattributed_frac", 1-layered/p50, "ratio", len(ph.latMS),
			"1 - (controller + predict + encode + decode + snapshot decode p50s) / depth-1 round-trip p50: socket and scheduling residue")
	} else {
		notExercised(r, "serve-ingest has no depth-1 decision loop", "serve.unattributed_frac", "ratio")
	}
	return nil
}

// overheadPrimary reports how much slower the traced stretch ran than
// the untraced one, on the workload's primary end-to-end metric.
func overheadPrimary(r *run, ph, traced *phase, ingest bool) {
	var cost0, cost1 float64
	what := "traced / untraced depth-1 round-trip p50, minus 1"
	if ingest {
		cost0, cost1 = 1/median(ph.rates), 1/median(traced.rates)
		what = "untraced / traced ingest rate, minus 1"
	} else {
		cost0, cost1 = median(ph.latMS), median(traced.latMS)
	}
	r.setLayer("trace.overhead_frac", cost1/cost0-1, "ratio", traced.ops, what)
}

// checkReplay recomputes every sampled decision offline with
// Predictor.PredictAt on the same window and checkpoint version; served
// and offline ratios must agree bitwise.
func checkReplay(r *run, st *serveStack, samples []decisionSample) {
	H := int64(st.sz.H)
	for _, smp := range samples {
		ck := st.reg.Get(st.sz.topo, smp.version)
		if ck == nil {
			r.fail("snapshot %d: served by unknown checkpoint v%d", smp.snapshot, smp.version)
			continue
		}
		tr := st.gen.trace(smp.snapshot-H+1, smp.snapshot+1)
		cfg, err := ck.Model.NewPredictor().PredictAt(tr, int(H))
		if err != nil || !sameBits(cfg.R, smp.ratios) {
			r.fail("snapshot %d: served decision differs from offline Predictor.PredictAt (v%d, err %v)", smp.snapshot, smp.version, err)
		}
	}
	r.report("replayed_decisions", float64(len(samples)), "count", len(samples), "served decisions re-derived offline and compared bitwise")
}

// checkSpool reopens the closed spool: it must hold every snapshot sent,
// bitwise, in order.
func checkSpool(r *run, st *serveStack) {
	path := filepath.Join(st.spool, st.sz.topo+".fgt")
	if r.opt.corrupt == "spool" {
		corruptFile(r, path)
	}
	rd, err := tracestore.Open(path)
	if err != nil {
		r.fail("spool: %v", err)
		r.failed += int(st.next) - 1
		return
	}
	defer rd.Close()
	if rd.Len() != st.next {
		r.fail("spool holds %d snapshots, sent %d", rd.Len(), st.next)
	}
	want := make([]float64, st.gen.base.Pairs.Count())
	for i := int64(0); i < min(rd.Len(), st.next); i++ {
		got, err := rd.At(i)
		st.gen.fill(want, i)
		if err != nil || !sameBits(got, want) {
			r.fail("spool snapshot %d differs from the one sent (err %v)", i, err)
		}
	}
	r.report("spooled_snapshots", float64(rd.Len()), "count", int(rd.Len()), "snapshots read back bitwise from the spool")
}

// corruptFile flips one payload byte of the spool's first block (past
// the 4096-byte header page and the 64-byte block header), as a torn or
// bit-rotted write would.
func corruptFile(r *run, path string) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		r.fail("corrupting spool: %v", err)
		return
	}
	defer f.Close()
	b := make([]byte, 1)
	const off = 4096 + 64 + 8
	if _, err := f.ReadAt(b, off); err == nil {
		b[0] ^= 0x40
		_, err = f.WriteAt(b, off)
	}
	if err != nil {
		r.fail("corrupting spool: %v", err)
	}
}
