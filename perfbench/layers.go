package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/nn"
	"figret/internal/serve"
	"figret/internal/te"
	"figret/internal/tracestore"
	"figret/internal/traffic"
	"figret/internal/wire"
)

// replayReps is how many calls each µs-scale layer replay makes.
const replayReps = 200

// layerInputs is what the layer replays run on: the workload's own
// topology, path set, checkpoint and demand windows.
type layerInputs struct {
	ps    *te.PathSet
	g     *graph.Graph
	topo  string
	T     int
	seed  int64
	model *figret.Model
	batch int // the workload's training minibatch
	// windows holds the demand snapshots the replays cycle through;
	// more than H.
	windows *traffic.Trace
}

// replayLayers calls each layer's public function on the workload's data
// under a span, checks what it returns, and reports each layer's median
// call time. Spans nest where the benchmark nests the calls (one decision
// or one training step per root span), so self times add up.
func replayLayers(r *run, in layerInputs) {
	replayDecisions(r, in)
	replayController(r, in)
	replayTracestore(r, in)
	replayTraining(r, in)
	replaySetup(r, in)
	replaySolver(r, in)

	layer := func(metricName, span, what string) {
		v, n := r.tr.p50us(span)
		r.setLayer(metricName, v, "us", n, what)
	}
	layer("figret.predict_us", "figret.predict", "Predictor.PredictAt, p50")
	layer("nn.forward_us", "nn.forward", "MLP.BatchForward, b=1, p50")
	layer("te.normalize_us", "te.normalize", "Config.Normalize, p50")
	layer("te.mlu_us", "te.mlu", "Config.MLU on the revealed demand (the drift observe), p50")
	layer("eval.advise_us", "eval.advise", "NNScheme.Advise, p50")
	layer("wire.encode_us", "wire.encode", "Encoder.DecisionDelta (full Decision when no delta is smaller), p50")
	layer("wire.decode_us", "wire.decode", "DecodeFrame + DecodeDelta/ApplyDelta or DecodeDecision, p50")
	layer("wire.snapshot_decode_us", "wire.snapshot_decode", "DecodeFrame + DecodeSnapshot, p50")
	layer("serve.ingest_us", "serve.ingest", "async Controller.Ingest, p50")
	layer("tracestore.append_flush_us", "tracestore.append_flush", "Writer.Append + Flush on a scratch store, p50")
	layer("nn.batch_forward_us", "nn.batch_forward", "MLP.BatchForward on one training minibatch, p50")
	layer("nn.batch_backward_us", "nn.batch_backward", "MLP.BatchBackward on one training minibatch, p50")
	layer("nn.adam_us", "nn.adam", "Adam.Step, p50")
	layer("nn.data_parallel_us", "nn.data_parallel", "DataParallel.Accumulate + Reduce on one minibatch with a trivial score, p50")

	sync, n := r.tr.p50us("serve.controller_sync")
	predict := r.layers["figret.predict_us"].Value
	r.setLayer("serve.controller_us", sync-predict, "us", n,
		fmt.Sprintf("in-process sync Controller.Ingest p50 (%.1f us) minus figret.predict_us: queue hop, window append, drift observe, publish", sync))
	step := r.layers["figret.train_step_us"].Value
	r.setLayer("figret.loss_us", step-r.layers["nn.data_parallel_us"].Value-r.layers["nn.adam_us"].Value, "us", 1,
		"figret.train_step_us minus nn.data_parallel_us and nn.adam_us: the loss, its gradient and window assembly")
	for _, ms := range [][3]string{
		{"te.pathset_ms", "te.pathset", "NewPathSetOpt, no cache, p50"},
		{"traffic.generate_ms", "traffic.generate", "traffic.ForTopology, p50"},
		{"solver.solve_ms", "solver.solve", "AutoSolve on one snapshot, p50"},
	} {
		v, n := r.tr.p50us(ms[1])
		r.setLayer(ms[0], v/1e3, "ms", n, ms[2])
	}
}

// replayDecisions runs the decision path layer by layer: inference as
// the controller calls it, its forward and normalize halves (which must
// reproduce it bitwise), the evaluation scheme's Advise, the drift
// observe, and the wire encode/decode of the decision and of the
// snapshot that caused it.
func replayDecisions(r *run, in layerInputs) {
	m, ps := in.model, in.ps
	H, pairs := m.Cfg.H, ps.Pairs.Count()
	layout := wire.Layout(ps.PairPaths)
	pred := m.NewPredictor()
	scratch := nn.NewScratch(m.Net, 1)
	sch := &baselines.NNScheme{Label: "FIGRET", Model: m}
	win := make([]float64, H*pairs)
	x := make([]float64, H*pairs)
	var enc, senc wire.Encoder
	var prev wire.Decision
	base, out := &wire.Decision{}, &wire.Decision{}
	var delta wire.Delta
	var snap wire.Snapshot
	frames, deltas, bytes := 0, 0, 0
	for k := 0; k < replayReps; k++ {
		t := H + k%(in.windows.Len()-H)
		req := int64(k)
		root := r.tr.begin("replay.decision", -1, req)

		id := r.tr.begin("figret.predict", root, req)
		cfg, err := pred.PredictAt(in.windows, t)
		r.tr.end(id)
		if err != nil {
			r.op(false, "replay predict at %d: %v", t, err)
			r.tr.end(root)
			continue
		}

		in.windows.WindowInto(win, t, H)
		f := 1 / m.Scale
		for i, v := range win {
			x[i] = v * f
		}
		id = r.tr.begin("nn.forward", root, req)
		y := m.Net.BatchForward(x, 1, scratch)
		r.tr.end(id)
		c := te.NewConfig(ps)
		copy(c.R, y)
		id = r.tr.begin("te.normalize", root, req)
		c.Normalize()
		r.tr.end(id)
		r.op(sameBits(c.R, cfg.R), "replay at %d: forward + normalize differs from PredictAt", t)

		id = r.tr.begin("eval.advise", root, req)
		adv, err := sch.Advise(in.windows, t)
		r.tr.end(id)
		r.op(err == nil && sameBits(adv.R, cfg.R), "replay at %d: Advise differs from PredictAt (err %v)", t, err)

		d := in.windows.At(t)
		id = r.tr.begin("te.mlu", root, req)
		mlu := cfg.MLU(d)
		r.tr.end(id)
		r.op(!math.IsNaN(mlu) && !math.IsInf(mlu, 0) && mlu >= 0, "replay at %d: MLU %v", t, mlu)

		next := wire.Decision{Seq: req + 1, Snapshot: int64(t), Version: 1, AtUnixNanos: 1, Ratios: cfg.R}
		id = r.tr.begin("wire.encode", root, req)
		frame, isDelta := []byte(nil), false
		if k > 0 {
			frame, isDelta = enc.DecisionDelta(&prev, &next, layout)
		}
		if !isDelta {
			frame = enc.Decision(&next)
		}
		r.tr.end(id)
		frames++
		bytes += len(frame)
		if isDelta {
			deltas++
		}
		id = r.tr.begin("wire.decode", root, req)
		typ, payload, err := wire.DecodeFrame(frame)
		if err == nil {
			switch typ {
			case wire.TDelta:
				if err = wire.DecodeDelta(payload, &delta); err == nil {
					err = wire.ApplyDelta(base, &delta, layout, out)
				}
			case wire.TDecision:
				err = wire.DecodeDecision(payload, out)
			default:
				err = fmt.Errorf("unexpected %s frame", typ)
			}
		}
		r.tr.end(id)
		r.op(err == nil && sameBits(out.Ratios, cfg.R), "replay at %d: wire round trip differs (err %v)", t, err)
		base, out = out, base
		prev = next

		sframe := senc.Snapshot(&wire.Snapshot{Demand: d})
		id = r.tr.begin("wire.snapshot_decode", root, req)
		typ, payload, err = wire.DecodeFrame(sframe)
		if err == nil && typ == wire.TSnapshot {
			err = wire.DecodeSnapshot(payload, &snap)
		}
		r.tr.end(id)
		r.op(err == nil && sameBits(snap.Demand, d), "replay at %d: snapshot round trip differs (err %v)", t, err)
		r.tr.end(root)
	}
	r.setLayer("wire.bytes_per_decision", float64(bytes)/float64(max(frames, 1)), "bytes", frames, "encoded decision frame size, mean")
	r.setLayer("wire.delta_frac", float64(deltas)/float64(max(frames, 1)), "ratio", frames, "decisions sent as deltas / decisions")
}

// replayController drives an in-process controller (same checkpoint,
// drift detection on) with sync ingests, then async ones.
func replayController(r *run, in layerInputs) {
	reg := serve.NewRegistry()
	if err := reg.AddTopology(in.topo, in.ps); err != nil {
		r.op(false, "replay controller: %v", err)
		return
	}
	if _, err := reg.Install(in.topo, in.model, "replay"); err != nil {
		r.op(false, "replay controller: %v", err)
		return
	}
	oracle := eval.NewOracle(in.ps, baselines.AutoSolve(in.ps), nil)
	c, err := serve.NewController(in.topo, reg, serve.ControllerOptions{HistoryCap: 256, Drift: &serve.DriftOptions{Oracle: oracle}})
	if err != nil {
		r.op(false, "replay controller: %v", err)
		return
	}
	defer c.Close()
	n := in.windows.Len()
	H := in.model.Cfg.H
	t := 0
	for ; t < H-1; t++ {
		if _, err := c.Ingest(in.windows.At(t), true); err != nil {
			r.op(false, "replay controller warm-up: %v", err)
			return
		}
	}
	for k := 0; k < replayReps; k, t = k+1, t+1 {
		id := r.tr.begin("serve.controller_sync", -1, int64(k))
		res, err := c.Ingest(in.windows.At(t%n), true)
		r.tr.end(id)
		r.op(err == nil && res.Decision != nil && validRatios(in.ps.PairPaths, res.Decision.Config.R),
			"replay controller sync ingest %d: no valid decision (err %v)", k, err)
	}
	for k := 0; k < replayReps; k, t = k+1, t+1 {
		id := r.tr.begin("serve.ingest", -1, int64(k))
		_, err := c.Ingest(in.windows.At(t%n), false)
		r.tr.end(id)
		r.op(err == nil, "replay controller async ingest %d: %v", k, err)
	}
}

// replayTracestore appends and flushes snapshots one at a time to a
// scratch store, as the ingest spool does, and counts the bytes the
// store hands to the OS per snapshot.
func replayTracestore(r *run, in layerInputs) {
	dir, err := os.MkdirTemp(r.opt.out, "replay-")
	if err != nil {
		r.op(false, "replay tracestore: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	w, err := tracestore.Create(filepath.Join(dir, "replay.fgt"), in.ps.Pairs.N(), tracestore.Options{})
	if err != nil {
		r.op(false, "replay tracestore: %v", err)
		return
	}
	before := tracestore.Stats().BytesWritten
	n := in.windows.Len()
	for k := 0; k < replayReps; k++ {
		id := r.tr.begin("tracestore.append_flush", -1, int64(k))
		err := w.Append(in.windows.At(k % n))
		if err == nil {
			err = w.Flush()
		}
		r.tr.end(id)
		r.op(err == nil, "replay tracestore append %d: %v", k, err)
	}
	written := tracestore.Stats().BytesWritten - before
	r.op(w.Close() == nil, "replay tracestore close")
	r.setLayer("tracestore.bytes_per_snapshot", float64(written)/replayReps, "bytes", replayReps, "bytes handed to the OS per appended-and-flushed snapshot")
}

// replayTraining runs one training minibatch of the workload's size
// through a copy of the checkpoint: forward, backward and Adam as
// single-threaded kernels, then the data-parallel engine the trainer
// uses (with a trivial score in place of FIGRET's loss).
func replayTraining(r *run, in layerInputs) {
	data, err := in.model.MarshalJSON()
	var m *figret.Model
	if err == nil {
		m, err = figret.LoadModel(in.ps, data)
	}
	if err != nil {
		r.op(false, "replay training: %v", err)
		return
	}
	H, B := m.Cfg.H, in.batch
	inW := H * in.ps.Pairs.Count()
	P := in.ps.NumPaths()
	xb := make([]float64, B*inW)
	for bi := 0; bi < B; bi++ {
		row := xb[bi*inW : (bi+1)*inW]
		in.windows.WindowInto(row, H+bi%(in.windows.Len()-H), H)
		for i := range row {
			row[i] *= 1 / m.Scale
		}
	}
	scratch := nn.NewScratch(m.Net, B)
	opt := nn.NewAdam(m.Cfg.LR)
	eng := nn.NewDataParallel(m.Net, 0)
	dOut := make([]float64, B*P)
	score := func(_ int, y []float64, r0, r1 int, dy []float64) {
		for i := range dy[:(r1-r0)*P] {
			dy[i] = y[i] * 1e-3
		}
	}
	reps := 20
	if r.opt.tiny {
		reps = 3
	}
	for k := 0; k < reps; k++ {
		req := int64(k)
		root := r.tr.begin("replay.train_step", -1, req)
		id := r.tr.begin("nn.batch_forward", root, req)
		y := m.Net.BatchForward(xb, B, scratch)
		r.tr.end(id)
		ok := true
		for i := range dOut {
			dOut[i] = y[i] * 1e-3
			ok = ok && !math.IsNaN(y[i])
		}
		r.op(ok, "replay training: forward output NaN")
		id = r.tr.begin("nn.batch_backward", root, req)
		m.Net.BatchBackward(dOut, B, scratch)
		r.tr.end(id)
		id = r.tr.begin("nn.adam", root, req)
		opt.Step(m.Net)
		r.tr.end(id)
		id = r.tr.begin("nn.data_parallel", root, req)
		eng.Accumulate(xb, B, score)
		eng.Reduce()
		r.tr.end(id)
		m.Net.ZeroGrads()
		r.tr.end(root)
	}
}

// replaySetup rebuilds the path set (no cache) and regenerates the
// trace: the two halves of every workload's environment set-up.
func replaySetup(r *run, in layerInputs) {
	reps := 3
	if r.opt.tiny {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		id := r.tr.begin("te.pathset", -1, int64(k))
		ps, err := te.NewPathSetOpt(in.g, in.ps.K, te.PathSetOptions{})
		r.tr.end(id)
		r.op(err == nil && ps.NumPaths() == in.ps.NumPaths(), "replay path set: %v", err)
		id = r.tr.begin("traffic.generate", -1, int64(k))
		tr, err := traffic.ForTopology(in.topo, in.g.NumVertices(), in.T, in.seed)
		r.tr.end(id)
		r.op(err == nil && tr.Len() == in.T, "replay trace generation: %v", err)
	}
}

// replaySolver solves the optimal TE problem (the oracle's cold solve)
// on a few snapshots.
func replaySolver(r *run, in layerInputs) {
	reps := 5
	if r.opt.tiny {
		reps = 2
	}
	solve := baselines.AutoSolve(in.ps)
	for k := 0; k < reps; k++ {
		d := in.windows.At(in.model.Cfg.H + k%(in.windows.Len()-in.model.Cfg.H))
		id := r.tr.begin("solver.solve", -1, int64(k))
		cfg, mlu, err := solve(in.ps, d, nil)
		r.tr.end(id)
		r.op(err == nil && validRatios(in.ps.PairPaths, cfg.R) && mlu > 0 && !math.IsInf(mlu, 0),
			"replay solve %d: MLU %v, err %v", k, mlu, err)
	}
}
