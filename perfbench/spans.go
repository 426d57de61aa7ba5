package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one recorded call into the program: its layer name, start and
// end (nanoseconds since the tracer started), the span that caused it
// (-1 for a root) and the request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. The benchmark records
// spans from its own code, around its calls into each module's public
// functions; nothing inside the program is instrumented. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
// Spans are recorded from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (-1 when not tracing).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// durations returns the durations of every closed span named name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// p50us is the median duration of the spans named name, in
// microseconds, with the sample count.
func (t *tracer) p50us(name string) (float64, int) {
	d := t.durations(name)
	if len(d) == 0 {
		return 0, 0
	}
	return median(d), len(d)
}

// layerTotals is one span name's aggregate: call count, total time and
// self time (total minus the time its child spans cover).
type layerTotals struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func (t *tracer) selfTimes() []layerTotals {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*layerTotals{}
	var order []string
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &layerTotals{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		a.Calls++
		a.Total += time.Duration(s.End - s.Start)
		a.Self += time.Duration(s.End-s.Start) - t.covered(s, children[i])
	}
	out := make([]layerTotals, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the child intervals within s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// summarize adds the self-time table to the report.
func (t *tracer) summarize(r *run) {
	for _, a := range t.selfTimes() {
		r.report("self."+a.Name, float64(a.Self)/1e6, "ms", a.Calls,
			fmt.Sprintf("self time over %d calls (total %.3f ms)", a.Calls, float64(a.Total)/1e6))
	}
	r.report("trace.spans", float64(len(t.spans)), "count", len(t.spans), "spans recorded")
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
