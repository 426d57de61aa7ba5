package main

import (
	"figret/internal/traffic"
)

// demandGen derives a serve run's demand snapshots from the
// environment's calibrated trace: snapshot i is trace snapshot i mod T
// with every pair scaled by its own factor in [0.9, 1.1), hashed from
// (seed, i, pair). The snapshots follow the bootstrap trace's
// distribution, yet none repeats within a run, so no memoisation can get
// free hits from a cycled trace. Any snapshot can be regenerated from its
// index alone, which the output checks rely on.
type demandGen struct {
	base *traffic.Trace
	seed uint64
	buf  []float64
}

func newDemandGen(base *traffic.Trace, seed int64) *demandGen {
	return &demandGen{base: base, seed: mix(uint64(seed)), buf: make([]float64, base.Pairs.Count())}
}

// at returns snapshot i in a buffer reused by the next call.
func (g *demandGen) at(i int64) []float64 {
	g.fill(g.buf, i)
	return g.buf
}

func (g *demandGen) fill(dst []float64, i int64) {
	src := g.base.At(int(i % int64(g.base.Len())))
	h := mix(g.seed ^ uint64(i))
	for p, v := range src {
		u := float64(mix(h+uint64(p))>>11) / (1 << 53)
		dst[p] = v * (0.9 + 0.2*u)
	}
}

// trace returns snapshots [from, to) as a fresh trace.
func (g *demandGen) trace(from, to int64) *traffic.Trace {
	tr := traffic.NewTrace(g.base.Pairs.N())
	d := make([]float64, g.base.Pairs.Count())
	for i := from; i < to; i++ {
		g.fill(d, i)
		tr.Append(d)
	}
	return tr
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
