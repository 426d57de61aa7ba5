// Command perfbench is the FIGRET end-to-end benchmark. It drives the
// system through its public API — the served stack, the trace store, the
// trainer and the evaluation engine — on one workload, checks every
// output it receives, and prints each metric by name with its unit, the
// sample count behind it and the machine descriptor. The last line of
// standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload serve-wan --seed 1 --seconds 25 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//	serve-wan     GEANT behind serve.Server: a depth-1 closed loop of
//	              sync decisions, then pipelined BinClient.Stream.
//	serve-ingest  the same server with an ingest spool, driven by
//	              pipelined BinClient.StreamAsync.
//	offline-dc    the ToR-level tor-web fabric: FIGRET training, then
//	              eval.Run against a cold LP oracle.
//	all           the three in turn, as one combined report (not a
//	              BENCHMARK.json workload).
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload untraced and then traced, records spans around every call the
// benchmark makes into the program, replays each layer's public function
// on the workload's own data and checkpoint, and reports per-layer
// metrics. Spans, self times and the full report are written under --out.
//
// The harness tests itself with `go test .` in this directory: a tiny run
// of every workload must emit exactly the metrics BENCHMARK.json declares,
// and a deliberately corrupted decision or spooled snapshot must be
// counted as failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every size so a whole workload runs in a few seconds
	// (the self-test).
	tiny bool
	// corrupt deliberately damages one output ("decision" or "spool") so
	// the self-test can prove the checks count it.
	corrupt string
}

// metric is one reported value, as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is one human-readable report entry: a metric with the sample
// count behind it and what it measures.
type line struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	What  string  `json:"what"`
}

// run accumulates one workload's outcome.
type run struct {
	opt options
	// tr records spans; nil while untraced, so every begin/end is free.
	tr *tracer

	attempted, failed int
	failures          []string

	e2e    map[string]metric
	layers map[string]metric
	lines  []line
}

func newRun(opt options) *run {
	return &run{opt: opt, e2e: map[string]metric{}, layers: map[string]metric{}}
}

// op counts one attempted operation, failed unless ok.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts one failed or incorrect operation that was already
// counted as attempted (or that verifies stored state).
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// report records a human-readable report line.
func (r *run) report(name string, v float64, unit string, n int, what string) {
	r.lines = append(r.lines, line{Name: name, Value: v, Unit: unit, N: n, What: what})
}

// setE2E records an end-to-end metric and its report line.
func (r *run) setE2E(name string, v float64, unit string, n int, what string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.report(name, v, unit, n, what)
}

// setLayer records a per-layer metric and its report line.
func (r *run) setLayer(name string, v float64, unit string, n int, what string) {
	r.layers[name] = metric{Value: v, Unit: unit}
	r.report(name, v, unit, n, what)
}

// notExercised reports per-layer metrics of layers the workload never
// reaches as 0, so every traced run carries the full metric set. names
// alternate metric name and unit.
func notExercised(r *run, why string, names ...string) {
	for i := 0; i+1 < len(names); i += 2 {
		r.setLayer(names[i], 0, names[i+1], 0, "not exercised: "+why)
	}
}

var workloads = map[string]func(*run) error{
	"serve-wan":    func(r *run) error { return runServe(r, false) },
	"serve-ingest": func(r *run) error { return runServe(r, true) },
	"offline-dc":   runOffline,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "serve-wan | serve-ingest | offline-dc | all")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every input (trace, jitter, model init) derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 25, "measured seconds per run, set-up excluded")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, reports and scratch files")
	flag.Parse()
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if opt.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if opt.workload == "all" {
		if err := runAll(os.Stdout, opt); err != nil {
			fatalf("%v", err)
		}
		return
	}
	r, err := execute(opt)
	if err != nil {
		fatalf("%s: %v", opt.workload, err)
	}
	if err := emit(os.Stdout, r, describeMachine()); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// execute runs one workload and fills its metrics. A workload that could
// not run at all is an error; operations that fail or return wrong
// results are counted in the run instead.
func execute(opt options) (*run, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-wan, serve-ingest, offline-dc or all)", opt.workload)
	}
	r := newRun(opt)
	steal0, total0 := cpuSteal()
	if err := fn(r); err != nil {
		return nil, err
	}
	steal1, total1 := cpuSteal()
	r.report("steal_frac", float64(steal1-steal0)/float64(max(total1-total0, 1)), "ratio", 1,
		"share of CPU time the hypervisor withheld during the run (/proc/stat); a high value explains a slow outlier")
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	r.report("failed_frac", float64(r.failed)/float64(r.attempted), "ratio", r.attempted,
		"failed or incorrect operations / attempted")
	if r.opt.trace {
		r.tr.summarize(r)
		if err := r.tr.write(filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// emit prints the report and, last, the result line.
func emit(w io.Writer, r *run, m machine) error {
	mode := "end-to-end"
	metrics := r.e2e
	if r.opt.trace {
		mode = "per-layer (traced)"
		metrics = r.layers
	}
	md, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g %s\n", r.opt.workload, r.opt.seed, r.opt.seconds, mode)
	fmt.Fprintf(w, "# machine %s\n", md)
	for _, l := range r.lines {
		fmt.Fprintf(w, "%-30s %14.6g %-6s n=%-8d %s\n", l.Name, l.Value, l.Unit, l.N, l.What)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
	full := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Trace    bool     `json:"trace"`
		Machine  machine  `json:"machine"`
		Lines    []line   `json:"report"`
		Failures []string `json:"failures,omitempty"`
	}{r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace, m, r.lines, r.failures}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", r.opt.workload, r.opt.seed, b2i(r.opt.trace))
	if err := os.WriteFile(filepath.Join(r.opt.out, name), data, 0o644); err != nil {
		return err
	}
	data, err = json.Marshal(result{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// headlineNames maps each workload's report lines onto the
// workload-specific headline names (decision_p50_ms, ingest_per_s, ...);
// "all" prints them side by side.
var headlineNames = map[string][][2]string{
	"serve-wan": {
		{"setup_s", "setup_s"}, {"op_p50_ms", "decision_p50_ms"}, {"op_p99_ms", "decision_p99_ms"},
		{"ops_per_s", "decisions_per_s"}, {"failed_frac", "failed_frac"}, {"peak_rss_mb", "peak_rss_mb"},
	},
	"serve-ingest": {
		{"setup_s", "setup_s"}, {"ops_per_s", "ingest_per_s"}, {"failed_frac", "failed_frac"},
		{"peak_rss_mb", "peak_rss_mb"},
	},
	"offline-dc": {
		{"setup_s", "setup_s"}, {"ops_per_s", "train_samples_per_s"},
		{"eval_snapshots_per_s", "eval_snapshots_per_s"}, {"mlu_norm_mean", "mlu_norm_mean"},
		{"severe_frac", "severe_frac"}, {"failed_frac", "failed_frac"}, {"peak_rss_mb", "peak_rss_mb"},
	},
}

// runAll runs the three workloads untraced, one after another in this
// process, and prints the headline metrics of each by name. Peak
// RSS is the process's, so it grows monotonically across the three.
func runAll(w io.Writer, opt options) error {
	m := describeMachine()
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	combined := map[string]metric{}
	var attempted, failed int
	var summary strings.Builder
	for _, name := range names {
		o := opt
		o.workload, o.trace = name, false
		r, err := execute(o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := emit(w, r, m); err != nil {
			return err
		}
		attempted += r.attempted
		failed += r.failed
		for _, pair := range headlineNames[name] {
			for _, l := range r.lines {
				if l.Name == pair[0] {
					combined[name+"/"+pair[1]] = metric{Value: l.Value, Unit: l.Unit}
					fmt.Fprintf(&summary, "%-13s %-22s %14.6g %-6s n=%d\n", name, pair[1], l.Value, l.Unit, l.N)
				}
			}
		}
	}
	fmt.Fprintf(w, "# all workloads, headline metrics\n%s", summary.String())
	data, err := json.Marshal(result{failed == 0, attempted, failed, combined})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deadline is a phase's end time.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
