package serve

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"figret/internal/wire"
)

// wireFixture boots a served PoD topology with an installed checkpoint
// and returns the JSON client (the server URL rides on it).
func wireFixture(t *testing.T) (*Client, *Server) {
	t.Helper()
	ps, tr, m := fixture(t, 60, 1)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
	if _, err := reg.Install("pod", m, "test"); err != nil {
		t.Fatal(err)
	}
	// Warm the controller past the model's history window.
	for i := 0; i < 8; i++ {
		if _, err := client.PostSnapshot("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	return client, srv
}

func sameDecision(t *testing.T, name string, a, b *RoutingResponse) {
	t.Helper()
	sameDecisionAt(t, name, a, b, true)
}

func sameDecisionAt(t *testing.T, name string, a, b *RoutingResponse, checkAt bool) {
	t.Helper()
	if a.Seq != b.Seq || a.Snapshot != b.Snapshot || a.Version != b.Version ||
		a.Rerouted != b.Rerouted || a.ChurnLimited != b.ChurnLimited || a.Warming != b.Warming {
		t.Fatalf("%s: headers differ: %+v vs %+v", name, a, b)
	}
	if checkAt && !a.At.Equal(b.At) {
		t.Fatalf("%s: At %v vs %v", name, a.At, b.At)
	}
	if len(a.Ratios) != len(b.Ratios) {
		t.Fatalf("%s: %d vs %d ratios", name, len(a.Ratios), len(b.Ratios))
	}
	for i := range a.Ratios {
		if math.Float64bits(a.Ratios[i]) != math.Float64bits(b.Ratios[i]) {
			t.Fatalf("%s: ratio %d differs bitwise: %v vs %v", name, i, a.Ratios[i], b.Ratios[i])
		}
	}
}

// TestWireStream exercises the upgraded persistent stream end to end:
// hello validation, sync decisions, delta encoding on stable demand,
// failure reports, async acks, and the routing query.
func TestWireStream(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)

	// Unknown topology: the server answers the hello with a 404 error
	// frame and the dial fails.
	if _, err := DialBin(client.BaseURL, "nope", ps, BinClientOptions{RedialAttempts: 1}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("dial to unknown topology: %v", err)
	}

	bin, err := DialBin(client.BaseURL, "pod", ps, BinClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	// First decision over the stream is full (no base yet).
	d1, err := bin.PostSnapshot(tr.At(10))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Warming || len(d1.Ratios) != ps.NumPaths() {
		t.Fatalf("stream decision %+v", d1)
	}
	if s := bin.Stats(); s.Fulls == 0 {
		t.Fatalf("first decision not counted full: %+v", s)
	}

	// Stable demand saturates the window with identical snapshots; the
	// decisions converge and the server switches to (tiny) delta frames.
	for i := 0; i < 12; i++ {
		if _, err := bin.PostSnapshot(tr.At(10)); err != nil {
			t.Fatal(err)
		}
	}
	if s := bin.Stats(); s.Deltas == 0 {
		t.Fatalf("no delta frames on stable demand: %+v", s)
	}

	// The stream's decision equals the JSON surface's routing view.
	last, err := bin.Routing()
	if err != nil {
		t.Fatal(err)
	}
	j, err := client.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "stream-vs-json", j, last)

	// Async ingest acks without a decision.
	if err := bin.PostSnapshotAsync(tr.At(11)); err != nil {
		t.Fatal(err)
	}

	// Failure report (clearing an empty set) republishes a decision.
	fd, err := bin.ReportFailures(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Ratios) != ps.NumPaths() {
		t.Fatalf("failures decision %+v", fd)
	}

	// An application error (malformed demand) comes back as a typed
	// error frame and the stream stays usable.
	if _, err := bin.PostSnapshot([]float64{1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "status 400") {
		t.Fatalf("short demand: %v", err)
	}
	if s := bin.Stats(); s.Redials != 0 {
		t.Fatalf("application error forced a redial: %+v", s)
	}
	if _, err := bin.PostSnapshot(tr.At(12)); err != nil {
		t.Fatalf("stream unusable after application error: %v", err)
	}
}

// TestWireStreamResync forces a delta gap (the client's base is
// corrupted behind the server's back) and checks the client recovers
// with a full-decision resync rather than failing.
func TestWireStreamResync(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	bin, err := DialBin(client.BaseURL, "pod", ps, BinClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	// Establish a delta chain on stable demand.
	for i := 0; i < 10; i++ {
		if _, err := bin.PostSnapshot(tr.At(20)); err != nil {
			t.Fatal(err)
		}
	}
	if bin.Stats().Deltas == 0 {
		t.Fatal("no delta chain established")
	}

	// Sabotage the client's cached base: the next delta no longer
	// applies (ErrDeltaGap) and must trigger an inline TResync.
	bin.last.Seq -= 5
	d, err := bin.PostSnapshot(tr.At(20))
	if err != nil {
		t.Fatal(err)
	}
	if d.Warming || len(d.Ratios) != ps.NumPaths() {
		t.Fatalf("post-resync decision %+v", d)
	}
	if s := bin.Stats(); s.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 (%+v)", s.Resyncs, s)
	}
	// The chain continues (deltas resume against the resynced base).
	before := bin.Stats().Deltas
	if _, err := bin.PostSnapshot(tr.At(20)); err != nil {
		t.Fatal(err)
	}
	if bin.Stats().Deltas == before {
		t.Fatal("delta chain did not resume after resync")
	}
}

// TestWireStreamPipelined runs Stream and StreamAsync past two full
// pipelines, so the sender's flush-before-wait on a full window runs,
// and checks ordering, decision counts and the RTT/in-flight
// bookkeeping.
func TestWireStreamPipelined(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	bin, err := DialBin(client.BaseURL, "pod", ps, BinClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	const n = 2*streamDepth + 1
	var seqs []int64
	stats, err := bin.Stream(n,
		func(i int) []float64 { return tr.At(i % tr.Len()) },
		func(i int, d *wire.Decision) { seqs = append(seqs, d.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != n || stats.Decisions != n || stats.Acks != 0 {
		t.Fatalf("stream stats %+v", stats)
	}
	if len(seqs) != n {
		t.Fatalf("observed %d decisions", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("decisions out of order at %d: %v -> %v", i, seqs[i-1], seqs[i])
		}
	}
	if stats.MeanRTTMicros <= 0 || stats.P99RTTMicros < stats.P50RTTMicros {
		t.Fatalf("rtt stats %+v", stats)
	}
	if stats.MaxWindow < 1 || stats.MaxWindow > streamDepth || stats.CongestionEvents != 0 {
		t.Fatalf("window stats %+v", stats)
	}
	if stats.BytesSent == 0 || stats.BytesReceived == 0 {
		t.Fatalf("byte counts %+v", stats)
	}

	// Async streaming acks everything.
	astats, err := bin.StreamAsync(n, func(i int) []float64 { return tr.At(i % tr.Len()) })
	if err != nil {
		t.Fatal(err)
	}
	if astats.Acks != n || astats.Decisions != 0 {
		t.Fatalf("async stream stats %+v", astats)
	}
	if astats.MaxWindow < 1 || astats.MaxWindow > streamDepth || astats.CongestionEvents != 0 {
		t.Fatalf("async window stats %+v", astats)
	}
}

// TestWireServerClose: Server.Close reaches hijacked stream connections
// (they are outside the HTTP server's connection tracking), so clients
// fail fast instead of hanging.
func TestWireServerClose(t *testing.T) {
	client, srv := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	bin, err := DialBin(client.BaseURL, "pod", ps, BinClientOptions{
		RedialAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	if _, err := bin.PostSnapshot(tr.At(10)); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if _, err := bin.PostSnapshot(tr.At(11)); err == nil {
		t.Fatal("stream op succeeded after server close")
	}
}

// TestWireReplayBitwise is the transport identity contract: a
// closed-loop replay over the upgraded delta-encoded stream must produce
// decisions and simulated per-interval results bitwise identical to the
// JSON replay of the same trace against the same checkpoint. Only
// publication timestamps (wall clock) may differ across runs.
func TestWireReplayBitwise(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	run := func(overWire bool) *ReplayResult {
		t.Helper()
		client, _, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
		if _, err := reg.Install("pod", m, "test"); err != nil {
			t.Fatal(err)
		}
		rr, err := Replay(client, "pod", ps, tr, ReplayOptions{To: 30, Delay: 1, Wire: overWire})
		if err != nil {
			t.Fatalf("replay (wire=%v): %v", overWire, err)
		}
		return rr
	}

	base := run(false)
	if len(base.Decisions) != 30 {
		t.Fatalf("json replay produced %d decisions", len(base.Decisions))
	}
	rr := run(true)
	if len(rr.Decisions) != len(base.Decisions) {
		t.Fatalf("wire: %d decisions, json %d", len(rr.Decisions), len(base.Decisions))
	}
	for i := range base.Decisions {
		sameDecisionAt(t, "wire", base.Decisions[i], rr.Decisions[i], false)
	}
	if len(rr.PerInterval) != len(base.PerInterval) {
		t.Fatalf("wire: %d intervals, json %d", len(rr.PerInterval), len(base.PerInterval))
	}
	for i := range base.PerInterval {
		if math.Float64bits(rr.PerInterval[i].MLU) != math.Float64bits(base.PerInterval[i].MLU) ||
			math.Float64bits(rr.PerInterval[i].LossRate) != math.Float64bits(base.PerInterval[i].LossRate) {
			t.Fatalf("wire interval %d: MLU %v/%v loss %v/%v", i,
				rr.PerInterval[i].MLU, base.PerInterval[i].MLU,
				rr.PerInterval[i].LossRate, base.PerInterval[i].LossRate)
		}
	}
	if math.Float64bits(rr.MeanMLU) != math.Float64bits(base.MeanMLU) ||
		math.Float64bits(rr.PeakMLU) != math.Float64bits(base.PeakMLU) ||
		math.Float64bits(rr.MeanLoss) != math.Float64bits(base.MeanLoss) {
		t.Fatalf("wire summary (%v %v %v) != json (%v %v %v)",
			rr.MeanMLU, rr.PeakMLU, rr.MeanLoss, base.MeanMLU, base.PeakMLU, base.MeanLoss)
	}
	if len(rr.Versions) != len(base.Versions) || rr.Versions[0] != base.Versions[0] {
		t.Fatalf("wire versions %v != %v", rr.Versions, base.Versions)
	}
}

// TestLoadGen drives the load generator end to end against a served
// topology and sanity-checks its throughput report.
func TestLoadGen(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	res, err := LoadGen(client.BaseURL, "pod", ps, tr, LoadOptions{Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.Decisions != 50 || res.DecisionsPerSec <= 0 {
		t.Fatalf("load result %+v", res)
	}
	if res.Bin.Fulls+res.Bin.Deltas == 0 {
		t.Fatalf("no decisions counted: %+v", res.Bin)
	}

	ares, err := LoadGen(client.BaseURL, "pod", ps, tr, LoadOptions{Requests: 20, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Stream.Acks != 20 || ares.RequestsPerSec <= 0 {
		t.Fatalf("async load result %+v", ares)
	}
}

// TestClientTransportDefaults: a Client without an explicit http.Client
// gets the shared tuned transport (timeouts + keep-alive pool), not
// http.DefaultClient.
func TestClientTransportDefaults(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	hc := c.http()
	if hc == http.DefaultClient {
		t.Fatal("fell back to http.DefaultClient")
	}
	if hc.Timeout <= 0 {
		t.Fatal("no overall request timeout")
	}
	tr, ok := hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T", hc.Transport)
	}
	if tr.MaxIdleConnsPerHost < 2 || tr.ResponseHeaderTimeout <= 0 || tr.IdleConnTimeout <= 0 {
		t.Fatalf("transport not tuned: %+v", tr)
	}
	override := &http.Client{}
	c.HTTP = override
	if c.http() != override {
		t.Fatal("explicit client not honored")
	}
}
