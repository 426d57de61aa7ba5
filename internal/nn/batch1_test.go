package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// dotReference is the scalar definition every batch-1 output must match
// bitwise: act(dot(W[o], x) + B[o]) for each output row o.
func dotReference(d *Dense, x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := range y {
		y[o] = d.Act.apply(dot(d.W[o*d.In:(o+1)*d.In], x) + d.B[o])
	}
	return y
}

func requireBitwise(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for o := range want {
		if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
			t.Fatalf("%s: output %d = %v, dot reference %v", label, o, got[o], want[o])
		}
	}
}

// TestBatch1MatchesDotReference pins the batch-1 (GEMV) path to the scalar
// dot() definition. The shape grid covers In mod 4 and Out mod 4 in
// {0,1,2,3} (dot4's inner tail and the dot() row tail), Out below, at and
// above tileOuts, and In·Out on both sides of parallelThreshold, for all
// three activations, through both the sharded and the serial dispatch.
func TestBatch1MatchesDotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ins := []int{8, 9, 10, 11, 1100, 1101, 1102, 1103}
	outs := []int{5, 6, 7, 8, 61, 62, 63, 64, 129, 130, 131, 132}
	for _, act := range []Activation{Identity, ReLU, Sigmoid} {
		for _, in := range ins {
			for _, out := range outs {
				d := NewDense(in, out, act, rng)
				for o := range d.B {
					d.B[o] = rng.NormFloat64()
				}
				x := randVec(rng, in)
				want := dotReference(d, x)
				y := make([]float64, out)
				for _, serial := range []bool{false, true} {
					for o := range y {
						y[o] = math.NaN()
					}
					d.batchForward(x, y, 1, serial)
					requireBitwise(t, fmt.Sprintf("%v %dx%d serial=%v", act, in, out, serial), y, want)
				}
				d.BatchForward(x, y, 1)
				requireBitwise(t, fmt.Sprintf("%v %dx%d BatchForward", act, in, out), y, want)
			}
		}
	}

	// Whole networks: each layer's input is the reference output of the
	// layer before it.
	for _, sizes := range [][]int{
		{1101, 62, 131, 7},
		{1103, 128, 128, 129},
		{9, 5, 64, 6},
	} {
		for _, acts := range [][2]Activation{{ReLU, Sigmoid}, {Identity, ReLU}, {Sigmoid, Identity}} {
			net := NewMLP(sizes, acts[0], acts[1], rng)
			x := randVec(rng, sizes[0])
			want := x
			for _, l := range net.Layers {
				want = dotReference(l, want)
			}
			s := NewScratch(net, 3)
			label := fmt.Sprintf("MLP %v %v/%v", sizes, acts[0], acts[1])
			requireBitwise(t, label, net.BatchForward(x, 1, s), want)
			requireBitwise(t, label+" serial", net.batchForward(x, 1, s, true), want)
			requireBitwise(t, label+" Forward", net.Forward(x), want)
		}
	}
}

// geantServeNet is the decision-path network of the GEANT serve workload:
// a 12-snapshot window over 506 pairs in, one ratio per path (1518) out.
func geantServeNet() (*MLP, []float64) {
	rng := rand.New(rand.NewSource(5))
	net := PaperMLP(12*506, 1518, rng)
	return net, randVec(rng, 12*506)
}

// BenchmarkForwardBatch1 times one batch-1 forward pass through the GEANT
// serve-shape network (6072→5×128→1518), the inference every decision
// runs.
func BenchmarkForwardBatch1(b *testing.B) {
	net, x := geantServeNet()
	s := NewScratch(net, 1)
	b.ReportAllocs()
	for b.Loop() {
		net.BatchForward(x, 1, s)
	}
}

// TestForwardBatch1Allocs asserts the batch-1 forward of
// BenchmarkForwardBatch1 allocates nothing when it runs inline. With
// GOMAXPROCS > 1 the pass is shared with a helper goroutine, which costs
// three allocations (the job, its per-layer tile counters and the helper)
// and nothing proportional to the network. testing.AllocsPerRun pins
// GOMAXPROCS to 1, so the count is taken from MemStats directly.
func TestForwardBatch1Allocs(t *testing.T) {
	net, x := geantServeNet()
	s := NewScratch(net, 1)
	for _, c := range []struct{ procs, max int }{{1, 0}, {2, 3}} {
		prev := runtime.GOMAXPROCS(c.procs)
		const runs = 50
		net.BatchForward(x, 1, s) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			net.BatchForward(x, 1, s)
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs > uint64(c.max) {
			t.Errorf("batch-1 forward at GOMAXPROCS=%d: %d allocs/op, want <= %d", c.procs, allocs, c.max)
		}
	}
}
