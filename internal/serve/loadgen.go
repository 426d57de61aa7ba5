package serve

import (
	"fmt"

	"figret/internal/te"
	"figret/internal/traffic"
)

// LoadOptions configures a load-generation run over the binary stream.
type LoadOptions struct {
	// Requests is the total snapshot count to drive; the trace window
	// cycles to fill it (default: one pass over the window).
	Requests int
	// From, To is the half-open trace window the demands cycle through
	// (clamped like Replay).
	From, To int
	// Async ingests without per-request decisions (burst-coalescing
	// throughput rather than decision throughput).
	Async bool
	// Bin tunes the binary client.
	Bin BinClientOptions
}

// LoadResult summarizes one load-generation run.
type LoadResult struct {
	// Stream carries the pipelining measurements (RTT quantiles, peak
	// in-flight requests, byte counts).
	Stream StreamStats
	// Bin carries the transport counters (delta vs full decisions,
	// resyncs, redials).
	Bin BinStats
	// DecisionsPerSec is decision responses over elapsed wall clock —
	// the serving data plane's sustained throughput as observed by one
	// pipelined client.
	DecisionsPerSec float64
	// RequestsPerSec counts every response (acks included).
	RequestsPerSec float64
}

// LoadGen drives the server's binary stream at maximum sustainable rate:
// it dials the upgraded protocol, pipelines Requests snapshot ingests
// from the trace window at the stream's fixed depth, and reports
// decisions/sec plus the transport's delta and RTT statistics. This is
// the load-generator mode behind cmd/served -drive and
// BenchmarkServeThroughput.
func LoadGen(baseURL, topo string, ps *te.PathSet, tr *traffic.Trace, opt LoadOptions) (*LoadResult, error) {
	from, to := opt.From, opt.To
	if to <= 0 || to > tr.Len() {
		to = tr.Len()
	}
	if from < 0 || from >= to {
		return nil, fmt.Errorf("serve: empty load window [%d,%d) of trace length %d", from, to, tr.Len())
	}
	span := to - from
	n := opt.Requests
	if n <= 0 {
		n = span
	}
	bin, err := DialBin(baseURL, topo, ps, opt.Bin)
	if err != nil {
		return nil, err
	}
	defer bin.Close()

	demand := func(i int) []float64 { return tr.At(from + i%span) }
	var stats *StreamStats
	if opt.Async {
		stats, err = bin.StreamAsync(n, demand)
	} else {
		stats, err = bin.Stream(n, demand, nil)
	}
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Stream: *stats, Bin: bin.Stats()}
	if s := stats.Elapsed.Seconds(); s > 0 {
		res.DecisionsPerSec = float64(stats.Decisions) / s
		res.RequestsPerSec = float64(stats.Decisions+stats.Acks) / s
	}
	return res, nil
}
