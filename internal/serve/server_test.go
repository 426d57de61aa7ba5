package serve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/netsim"
	"figret/internal/te"
	"figret/internal/traffic"
)

// startServer wires a registry + server around one topology and returns
// an HTTP client against it.
func startServer(t *testing.T, topo string, ps *te.PathSet, opt ControllerOptions) (*Client, *Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddTopology(topo, ps); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	if _, err := srv.Add(topo, opt); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return NewClient(hs.URL), srv, reg
}

// TestClosedLoopReplayMatchesOffline is the acceptance check of the
// serving subsystem: a WAN trace replayed through the HTTP API must
// yield, snapshot for snapshot, routing configs bitwise identical to
// offline Predictor inference on the same windows — and the closed-loop
// (delayed-installation) MLU series must equal an offline control loop
// over the same decisions.
func TestClosedLoopReplayMatchesOffline(t *testing.T) {
	const h = 4
	g := graph.GEANT()
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.WAN(g.NumVertices(), 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test := tr.Split(0.75)
	m := figret.New(ps, figret.Config{H: h, Gamma: 1, Hidden: []int{64, 64}, Epochs: 2, Seed: 7, BatchSize: 16})
	if _, err := m.Train(train); err != nil {
		t.Fatal(err)
	}

	client, _, _ := startServer(t, "geant", ps, ControllerOptions{HistoryCap: 64})

	// Install the offline-trained model through the upload path.
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := client.UploadCheckpoint("geant", data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != 1 {
		t.Fatalf("uploaded version = %d", ck.Version)
	}

	const delay = 2
	res, err := Replay(client, "geant", ps, test, ReplayOptions{To: 30, Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 30 {
		t.Fatalf("replayed %d decisions, want 30", len(res.Decisions))
	}

	// (1) Bitwise equality with offline inference on the same windows.
	for i, dec := range res.Decisions {
		if i < h-1 {
			if !dec.Warming {
				t.Fatalf("t=%d: decision before warmup", i)
			}
			continue
		}
		if dec.Warming {
			t.Fatalf("t=%d: still warming", i)
		}
		want, err := m.Predict(test.Window(i+1, h))
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.Ratios) != len(want.R) {
			t.Fatalf("t=%d: %d ratios, want %d", i, len(dec.Ratios), len(want.R))
		}
		for p := range want.R {
			if dec.Ratios[p] != want.R[p] {
				t.Fatalf("t=%d path %d: served %v, offline %v", i, p, dec.Ratios[p], want.R[p])
			}
		}
	}
	if len(res.Versions) != 1 || res.Versions[0] != 1 {
		t.Fatalf("served versions %v, want [1]", res.Versions)
	}

	// (2) The closed loop equals an offline delayed-installation loop over
	// the same decisions.
	installed := te.UniformConfig(ps)
	var pending []*te.Config
	for i := 0; i < 30; i++ {
		if len(pending) > delay {
			installed = pending[0]
			pending = pending[1:]
		}
		sim, err := netsim.Simulate(installed, test.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerInterval[i].MLU; got != sim.MLU {
			t.Fatalf("interval %d: closed-loop MLU %v, offline loop %v", i, got, sim.MLU)
		}
		if i >= h-1 {
			cfg, err := m.Predict(test.Window(i+1, h))
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, cfg)
		}
	}
	if res.MeanMLU <= 0 || res.PeakMLU < res.MeanMLU {
		t.Fatalf("degenerate loop summary: %+v", res)
	}
}

// TestHotSwapMidStream drives the drift-triggered retrain lifecycle
// end-to-end under load: a hair-trigger detector fires mid-stream, the
// background retrainer shadow-evaluates against the shared oracle and
// swaps a new checkpoint in, and every request before, during and after
// the swap is answered with a valid configuration of the version it
// reports (no drops, no misrouting). Run it with -race: the swap is
// exactly the concurrency hazard the registry's atomic pointer protects.
func TestHotSwapMidStream(t *testing.T) {
	ps, tr, m := fixture(t, 200, 11)
	oracle := eval.NewOracle(ps, baselines.AutoSolve(ps), nil)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{
		HistoryCap: 32,
		Drift: &DriftOptions{
			// Hair trigger: any post-calibration observation counts as
			// drifted, so the retrain fires deterministically early.
			Threshold:          1e-9,
			Alpha:              0.5,
			Patience:           2,
			CalibrationSamples: 4,
			Epochs:             2,
			ShadowWindow:       4,
			Tolerance:          1e9, // accept the candidate unconditionally
			Oracle:             oracle,
		},
	})
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers: routing must stay valid through the swap.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readErr := make(chan error, 1)
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				rr, err := client.Routing("pod")
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				if _, err := te.FromRatios(ps, append([]float64(nil), rr.Ratios...)); err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
			}
		}()
	}

	type served struct {
		snapshot int64
		version  int
		ratios   []float64
	}
	var log []served
	deadline := time.Now().Add(60 * time.Second)
	swapped := false
	for i := 0; !swapped; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no hot swap within deadline")
		}
		d := tr.At(i % tr.Len())
		rr, err := client.PostSnapshot("pod", d)
		if err != nil {
			t.Fatalf("request %d dropped: %v", i, err)
		}
		if rr.Warming {
			if i >= 4 {
				t.Fatalf("request %d: warming after warmup", i)
			}
			continue
		}
		log = append(log, served{snapshot: rr.Snapshot, version: rr.Version, ratios: append([]float64(nil), rr.Ratios...)})
		if rr.Version > 1 {
			swapped = true
		}
	}
	close(stopReads)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent routing read failed: %v", err)
	default:
	}

	// Post-hoc misrouting audit: every decision must be exactly what the
	// checkpoint version it reports computes on the window it saw. The
	// served demand stream cycled tr, so rebuild it to recover windows.
	replayed := traffic.NewTrace(ps.Pairs.N())
	for i := int64(0); i <= log[len(log)-1].snapshot; i++ {
		replayed.Append(tr.At(int(i) % tr.Len()))
	}
	for _, s := range log {
		ck := reg.Get("pod", s.version)
		if ck == nil {
			t.Fatalf("snapshot %d served retired version %d", s.snapshot, s.version)
		}
		h := ck.Model.Cfg.H
		want, err := ck.Model.Predict(replayed.Window(int(s.snapshot)+1, h))
		if err != nil {
			t.Fatal(err)
		}
		for p := range want.R {
			if s.ratios[p] != want.R[p] {
				t.Fatalf("snapshot %d (version %d) path %d: served %v, model %v — misrouted",
					s.snapshot, s.version, p, s.ratios[p], want.R[p])
			}
		}
	}

	// The swap is visible in the registry and the metrics.
	if v := reg.Active("pod").Version; v < 2 {
		t.Fatalf("active version %d after swap", v)
	}
	if got := srv.Controller("pod").Metrics(); got.Retrains == 0 {
		t.Fatalf("metrics recorded no retrain: %+v", got)
	}
	// The oracle actually backed the shadow evaluation.
	if hits, misses := oracle.Stats(); hits+misses == 0 {
		t.Fatal("shadow evaluation never consulted the oracle")
	}
}

// TestUploadRejectsMismatchedHistory: a checkpoint whose cfg.H disagrees
// with its network's input width is refused with 422 at upload, and the
// controller keeps deciding with the active version instead of
// panicking on the next snapshot.
func TestUploadRejectsMismatchedHistory(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	client, _, _ := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
	good, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadCheckpoint("pod", good); err != nil {
		t.Fatal(err)
	}
	bad := *m
	bad.Cfg.H++
	data, err := bad.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadCheckpoint("pod", data); err == nil || !strings.Contains(err.Error(), "status 422") {
		t.Fatalf("tampered-H checkpoint upload: %v", err)
	}
	var rr *RoutingResponse
	for i := 0; i <= bad.Cfg.H; i++ {
		if rr, err = client.PostSnapshot("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if rr.Warming || rr.Version != 1 {
		t.Fatalf("decision after rejected upload = %+v, want version 1", rr)
	}
}

func TestServerEndpoints(t *testing.T) {
	ps, tr, m := fixture(t, 60, 21)
	client, _, _ := startServer(t, "pod", ps, ControllerOptions{})

	topos, err := client.Topologies()
	if err != nil || len(topos) != 1 || topos[0] != "pod" {
		t.Fatalf("topologies = %v, %v", topos, err)
	}

	// Routing before any checkpoint: the bootstrap uniform fallback.
	rr, err := client.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Version != 0 || rr.Seq != 0 {
		t.Fatalf("bootstrap decision = %+v", rr)
	}
	if _, err := te.FromRatios(ps, append([]float64(nil), rr.Ratios...)); err != nil {
		t.Fatalf("bootstrap config invalid: %v", err)
	}

	// Upload two checkpoints, then roll back.
	data1, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadCheckpoint("pod", data1); err != nil {
		t.Fatal(err)
	}
	m2 := figret.New(ps, figret.Config{H: 4, Epochs: 1, Seed: 99})
	if _, err := m2.Train(tr); err != nil {
		t.Fatal(err)
	}
	data2, err := m2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := client.UploadCheckpoint("pod", data2)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Version != 2 {
		t.Fatalf("second upload version = %d", ck2.Version)
	}
	cks, err := client.Checkpoints("pod")
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints = %+v, %v", cks, err)
	}
	back, err := client.Rollback("pod")
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback to version %d, want 1", back.Version)
	}

	// Async ingest path + metrics.
	for i := 0; i < 6; i++ {
		if err := client.PostSnapshotAsync("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A sync snapshot serializes behind the async burst.
	rr, err = client.PostSnapshot("pod", tr.At(6))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Warming || rr.Version != 1 {
		t.Fatalf("post-burst decision = %+v", rr)
	}
	ms, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms["pod"].Snapshots != 7 || ms["pod"].Decisions == 0 {
		t.Fatalf("metrics = %+v", ms["pod"])
	}
	if ms["pod"].P50Micros <= 0 || ms["pod"].P99Micros < ms["pod"].P50Micros {
		t.Fatalf("latency quantiles = %+v", ms["pod"])
	}

	// Failure report over HTTP.
	e := ps.G.Edge(0)
	rr, err = client.ReportFailures("pod", [][2]int{{e.From, e.To}})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Rerouted {
		t.Fatalf("failure report not rerouted: %+v", rr)
	}
	if _, err = client.ReportFailures("pod", nil); err != nil {
		t.Fatal(err)
	}

	// Unknown topology and malformed demand errors.
	if _, err := client.Routing("nope"); err == nil {
		t.Fatal("unknown topology served")
	}
	if _, err := client.PostSnapshot("pod", []float64{1}); err == nil {
		t.Fatal("short demand vector accepted")
	}
}
