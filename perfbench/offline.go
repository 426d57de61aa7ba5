package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
)

// offlineSizes sizes the offline-dc workload: FIGRET as cmd/figret
// trains it on the fast-scale ToR fabric, with 32-row minibatches so two
// 16-row gradient shards keep two workers busy.
type offlineSizes struct {
	topo                string
	T, H, epochs, batch int
	hidden              []int
	setups              int
	predictPasses       int // passes over the test windows per cycle for the decision latency
}

func offlineSizesFor(opt options) offlineSizes {
	s := offlineSizes{topo: "tor-web", T: 400, H: 12, epochs: 8, batch: 32, setups: 9, predictPasses: p99Block / 100}
	if opt.trace {
		s.setups = 1
	}
	if opt.tiny {
		s.T, s.H, s.epochs, s.hidden, s.setups, s.predictPasses = 48, 4, 1, []int{16}, 1, 2
	}
	return s
}

// cycles is one measured stretch of offline-dc: train → evaluate →
// time single decisions, repeated until the deadline (at least once).
type cycles struct {
	trainRates, stepUS, evalRates, latMS []float64
	evalSnapshots                        int
	mluNorm, severe                      float64
	hits, misses                         uint64
	mallocs, allocBytes, gcPauseNs       uint64
	model                                *figret.Model
}

func runCycles(r *run, env *experiments.Env, sz offlineSizes, seconds float64) (*cycles, error) {
	c := &cycles{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	until := deadline(seconds)
	for k := 0; k == 0 || time.Now().Before(until); k++ {
		runtime.GC() // every cycle starts from the same heap
		root := r.tr.begin("cycle", -1, int64(k))
		m := figret.New(env.PS, figret.Config{H: sz.H, Gamma: 1, Epochs: sz.epochs, Seed: r.opt.seed, BatchSize: sz.batch, Hidden: sz.hidden})
		id := r.tr.begin("figret.train", root, int64(k))
		t0 := time.Now()
		_, err := m.Train(env.Train)
		trainS := time.Since(t0).Seconds()
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		windows := env.Train.Len() - sz.H
		c.trainRates = append(c.trainRates, float64(windows*sz.epochs)/trainS)
		c.stepUS = append(c.stepUS, trainS*1e6/float64(sz.epochs*((windows+sz.batch-1)/sz.batch)))
		c.model = m

		oracle := eval.NewOracle(env.PS, baselines.AutoSolve(env.PS), nil)
		scheme := &baselines.NNScheme{Label: "FIGRET", Model: m}
		id = r.tr.begin("eval.run", root, int64(k))
		t0 = time.Now()
		res, err := eval.Run([]baselines.Scheme{scheme}, env.Trace, eval.Window{From: env.TestStart, To: env.Trace.Len()}, eval.Options{Oracle: oracle})
		evalS := time.Since(t0).Seconds()
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		series := res.Scheme("FIGRET")
		if r.opt.corrupt == "decision" && k == 0 && len(series.Norm) > 0 {
			series.Norm[0] = 0.5 // self-test: a normalized MLU below 1 must be counted
		}
		for i, v := range series.Norm {
			r.op(!math.IsNaN(v) && !math.IsInf(v, 0) && v >= 1-1e-9,
				"snapshot %d: normalized MLU %v is not finite and >= 1 against the LP oracle", series.From+i, v)
		}
		c.evalSnapshots += len(series.Norm)
		c.evalRates = append(c.evalRates, float64(len(series.Norm))/evalS)
		c.mluNorm, c.severe = series.AvgNorm, series.SevereCongestion
		c.hits, c.misses = oracle.Stats()

		pred := m.NewPredictor()
		runtime.GC() // evaluation's garbage is not the decision loop's cost
		for pass := 0; pass < sz.predictPasses; pass++ {
			for t := env.TestStart; t < env.Trace.Len(); t++ {
				id = r.tr.begin("figret.predict", root, int64(t))
				t0 = time.Now()
				cfg, err := pred.PredictAt(env.Trace, t)
				lat := time.Since(t0)
				r.tr.end(id)
				r.op(err == nil && validRatios(env.PS.PairPaths, cfg.R), "decision at %d: %v", t, err)
				c.latMS = append(c.latMS, float64(lat)/1e6)
			}
		}
		r.tr.end(root)
	}
	runtime.ReadMemStats(&m1)
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	c.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return c, nil
}

// runOffline is the offline-dc workload.
func runOffline(r *run) error {
	sz := offlineSizesFor(r.opt)
	var tracer *tracer
	if r.opt.trace {
		tracer = newTracer()
	}
	r.tr = tracer

	var setupS []float64
	var env *experiments.Env
	for i := 0; i < sz.setups; i++ {
		root := r.tr.begin("setup", -1, int64(i))
		id := r.tr.begin("experiments.new_env", root, int64(i))
		t0 := time.Now()
		e, err := experiments.NewEnv(sz.topo, experiments.ScaleFast, experiments.EnvOptions{T: sz.T, Seed: r.opt.seed})
		el := time.Since(t0)
		r.tr.end(id)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, el.Seconds())
		env = e
	}

	var c, traced *cycles
	var err error
	if r.opt.trace {
		r.tr = nil
		if c, err = runCycles(r, env, sz, r.opt.seconds/2); err != nil {
			return err
		}
		r.tr = tracer
		traced, err = runCycles(r, env, sz, r.opt.seconds/2)
	} else {
		c, err = runCycles(r, env, sz, r.opt.seconds)
	}
	if err != nil {
		return err
	}

	if !r.opt.trace {
		r.setE2E("peak_rss_mb", peakRSSMB(), "MB", 1, "process peak resident set size, set-ups and measurement")
		r.setE2E("setup_s", median(setupS), "s", len(setupS), "env: path precompute + trace generation + calibration, median of set-ups")
		r.setE2E("ops_per_s", median(c.trainRates), "1/s", len(c.trainRates), "train_samples_per_s: Model.Train windows consumed per second, median of cycles")
		r.report("eval_snapshots_per_s", median(c.evalRates), "1/s", len(c.evalRates), fmt.Sprintf("test snapshots per second of eval.Run with a cold LP oracle, median of cycles (%d snapshots); LP cost varies with the seed's trace, so it is not gated", c.evalSnapshots))
		n := len(c.latMS)
		r.report("op_p99_ms", blockP99(c.latMS), "ms", n, fmt.Sprintf("one FIGRET decision on a held-out window (Predictor.PredictAt), median of the p99s of %d-decision blocks", p99Block))
		r.setE2E("op_p50_ms", quantile(c.latMS, 0.5), "ms", n, "one FIGRET decision on a held-out window (Predictor.PredictAt)")
		r.report("mlu_norm_mean", c.mluNorm, "ratio", c.evalSnapshots/len(c.evalRates), "FIGRET MLU / oracle MLU, mean over the test snapshots")
		r.report("severe_frac", c.severe, "ratio", c.evalSnapshots/len(c.evalRates), "share of test snapshots with normalized MLU > 2")
		return nil
	}

	ops := float64(max(c.evalSnapshots, 1))
	r.setLayer("runtime.allocs_per_op", float64(c.mallocs)/ops, "count", c.evalSnapshots, "heap allocations per evaluated snapshot, whole untraced cycles (training included)")
	r.setLayer("runtime.alloc_bytes_per_op", float64(c.allocBytes)/ops, "bytes", c.evalSnapshots, "heap bytes per evaluated snapshot, whole untraced cycles (training included)")
	r.setLayer("runtime.gc_pause_ms", float64(c.gcPauseNs)/1e6, "ms", len(c.trainRates), "total GC pause in the untraced cycles")
	r.setLayer("eval.mlu_norm_mean", c.mluNorm, "ratio", c.evalSnapshots/len(c.evalRates), "FIGRET MLU / oracle MLU, mean over the test snapshots")
	r.setLayer("eval.severe_frac", c.severe, "ratio", c.evalSnapshots/len(c.evalRates), "share of test snapshots with normalized MLU > 2")
	r.setLayer("eval.snapshots_per_s", median(c.evalRates), "1/s", c.evalSnapshots, "test snapshots per second of eval.Run with a cold LP oracle, median of untraced cycles")
	r.setLayer("eval.oracle_hit_frac", float64(c.hits)/float64(max(c.hits+c.misses, 1)), "ratio", int(c.hits+c.misses), "cold oracle hits / lookups in one eval.Run")
	r.setLayer("figret.train_step_us", median(c.stepUS), "us", len(c.stepUS), "Model.Train seconds per minibatch step")
	r.setLayer("trace.overhead_frac", median(c.trainRates)/median(traced.trainRates)-1, "ratio", len(traced.trainRates), "untraced / traced training rate, minus 1")
	notExercised(r, "offline-dc runs no server",
		"serve.rtt_p50_ms", "ms", "serve.window_max", "count", "serve.congestion_events", "count",
		"serve.coalesced_frac", "ratio", "serve.retrains", "count", "serve.unattributed_frac", "ratio")
	replayLayers(r, layerInputs{
		ps: env.PS, g: env.G, topo: sz.topo, T: sz.T, seed: r.opt.seed,
		model: traced.model, batch: sz.batch, windows: env.Trace,
	})
	return nil
}
