package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"figret/internal/traffic"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs one workload at self-test size and parses its result line.
func tiny(t *testing.T, workload string, trace bool, corrupt string) result {
	t.Helper()
	opt := options{workload: workload, seed: 3, seconds: 1, trace: trace, out: t.TempDir(), tiny: true, corrupt: corrupt}
	r, err := execute(opt)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, r, describeMachine()); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if !strings.Contains(out, "# machine {") {
		t.Errorf("%s: report carries no machine descriptor", workload)
	}
	var res result
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// at tiny size, untraced and traced, and checks that the result line
// carries exactly the declared metrics with their units, and that the
// unchanged program fails nothing.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := tiny(t, w.Name, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, declared %q", w.Name, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: missing metric %s", w.Name, trace, name)
				}
			}
			sort.Strings(got)
			t.Logf("%s trace=%v: %s", w.Name, trace, strings.Join(got, " "))
		}
	}
}

// TestChecksCountCorruption damages one served decision, one spooled
// snapshot and one evaluated MLU, and requires each run to count it.
func TestChecksCountCorruption(t *testing.T) {
	for _, c := range []struct{ workload, corrupt string }{
		{"serve-wan", "decision"},
		{"serve-ingest", "spool"},
		{"offline-dc", "decision"},
	} {
		res := tiny(t, c.workload, false, c.corrupt)
		if res.Correct || res.Failed < 1 || res.Failed > res.Attempted {
			t.Errorf("%s with a corrupted %s: correct %v, %d of %d failed; want the damage counted",
				c.workload, c.corrupt, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func tinyTrace(t *testing.T) *traffic.Trace {
	t.Helper()
	tr, err := traffic.ForTopology("geant", 23, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDemandSnapshotsDoNotRepeat(t *testing.T) {
	g := newDemandGen(tinyTrace(t), 7)
	seen := map[string]int64{}
	for i := int64(0); i < 4096; i++ {
		var key []byte
		for _, v := range g.at(i) {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		if j, ok := seen[string(key)]; ok {
			t.Fatalf("snapshots %d and %d are equal", j, i)
		}
		seen[string(key)] = i
	}
	a := append([]float64(nil), g.at(123)...)
	if !sameBits(a, newDemandGen(tinyTrace(t), 7).at(123)) {
		t.Fatal("a snapshot is not reproducible from its index and seed")
	}
	if sameBits(a, newDemandGen(tinyTrace(t), 8).at(123)) {
		t.Fatal("different seeds give the same snapshot")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10..60
		{Name: "a", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
	}}
	got := map[string]int64{}
	for _, l := range tr.selfTimes() {
		got[l.Name] = int64(l.Self)
	}
	if got["root"] != 100-50-10 || got["a"] != 60 || got["b"] != 30 {
		t.Fatalf("self times %v", got)
	}
}
