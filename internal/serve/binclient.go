package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/textproto"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"figret/internal/te"
	"figret/internal/wire"
)

// BinClientOptions tunes the binary stream client.
type BinClientOptions struct {
	// NoDelta disables delta-encoded decisions (the zero value
	// negotiates them: decisions arrive as changed-pairs deltas whenever
	// that is smaller than the full vector).
	NoDelta bool
	// DialTimeout bounds one TCP connect + upgrade handshake (default
	// 5s).
	DialTimeout time.Duration
	// RedialAttempts is how many times a broken connection is redialed
	// with exponential backoff before an operation fails (default 4).
	RedialAttempts int
	// RedialBackoff is the initial backoff between redials, doubling per
	// attempt up to 2s (default 50ms).
	RedialBackoff time.Duration
	// ReadTimeout bounds one blocking response read (default 30s).
	ReadTimeout time.Duration
	// Telemetry, when non-nil, exports the stream's per-request RTTs,
	// redial/resync counters and delta-vs-full mix through the obs
	// registry. Purely observational.
	Telemetry *StreamTelemetry
}

func (o BinClientOptions) withDefaults() BinClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 4
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	return o
}

// BinClient drives the binary wire protocol over one persistent
// upgraded connection: an HTTP Upgrade handshake on the JSON API's own
// listener, then length-prefixed wire frames both ways. Requests
// pipeline (Stream keeps up to streamDepth of them in flight),
// responses arrive strictly in request order, and decisions may be
// delta-encoded against the previous one, with automatic full-decision
// resync.
//
// A broken connection redials with exponential backoff (and a fresh
// delta base — reconnecting is the coarse resync). Snapshot ingest is
// therefore at-least-once across redials: a request whose response was
// lost may have been ingested.
//
// A BinClient is not safe for concurrent use; replay and load
// generation are single-driver loops by construction.
type BinClient struct {
	hostport string
	topo     string
	ps       *te.PathSet
	opt      BinClientOptions
	tel      *StreamTelemetry

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  wire.Encoder
	dec  wire.Decoder

	// Delta state: last holds the latest full decision (the delta
	// base), spare is the decode/apply target they swap through.
	last, spare *wire.Decision
	delta       wire.Delta
	haveLast    bool

	// Counters (see BinStats).
	deltas, fulls, resyncs, redials uint64
	bytesIn                         int64
}

// BinStats reports a client's transport counters.
type BinStats struct {
	// Deltas and Fulls count decision encodings received.
	Deltas, Fulls uint64
	// Resyncs counts full-decision resyncs forced by delta gaps.
	Resyncs uint64
	// Redials counts reconnects after broken connections.
	Redials uint64
}

// DialBin connects the binary stream client to the server at baseURL
// (the JSON client's BaseURL, e.g. "http://127.0.0.1:8080") and binds
// it to topo. ps must be the topology's path set — decisions are
// validated and delta-decoded against its layout.
func DialBin(baseURL, topo string, ps *te.PathSet, opt BinClientOptions) (*BinClient, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: bin client: %w", err)
	}
	host := u.Host
	if host == "" {
		host = baseURL // tolerate a bare host:port
	}
	if !strings.Contains(host, ":") {
		host += ":80"
	}
	c := &BinClient{
		hostport: host,
		topo:     topo,
		ps:       ps,
		opt:      opt.withDefaults(),
		tel:      opt.Telemetry,
		last:     &wire.Decision{},
		spare:    &wire.Decision{},
	}
	if err := c.dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns the transport counters.
func (c *BinClient) Stats() BinStats {
	return BinStats{Deltas: c.deltas, Fulls: c.fulls, Resyncs: c.resyncs, Redials: c.redials}
}

// Topology returns the bound topology name.
func (c *BinClient) Topology() string { return c.topo }

// Close drops the connection.
func (c *BinClient) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// dial establishes one connection: TCP connect, HTTP upgrade, hello.
func (c *BinClient) dial() error {
	d := net.Dialer{Timeout: c.opt.DialTimeout}
	conn, err := d.Dial("tcp", c.hostport)
	if err != nil {
		return fmt.Errorf("serve: bin client: %w", err)
	}
	conn.SetDeadline(time.Now().Add(c.opt.DialTimeout))
	br := bufio.NewReaderSize(conn, wireWriteBufSize)
	if _, err := fmt.Fprintf(conn, "GET /v1/wire HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		c.hostport, wire.UpgradeProtocol); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	tp := textproto.NewReader(br)
	status, err := tp.ReadLine()
	if err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	if !strings.Contains(status, " 101 ") {
		conn.Close()
		return fmt.Errorf("serve: bin client: upgrade refused: %q", status)
	}
	if _, err := tp.ReadMIMEHeader(); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	// Bind to the topology.
	if _, err := conn.Write(c.enc.Hello(&wire.Hello{Topo: c.topo, Delta: !c.opt.NoDelta})); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	t, payload, err := c.dec.ReadFrame(br)
	if err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: hello: %w", err)
	}
	switch t {
	case wire.THelloAck:
		var ack wire.HelloAck
		if err := wire.DecodeHelloAck(payload, &ack); err != nil {
			conn.Close()
			return fmt.Errorf("serve: bin client: %w", err)
		}
		if ack.Pairs != c.ps.Pairs.Count() || ack.Paths != c.ps.NumPaths() {
			conn.Close()
			return fmt.Errorf("serve: bin client: topology %q serves %d pairs / %d paths, local path set has %d / %d",
				c.topo, ack.Pairs, ack.Paths, c.ps.Pairs.Count(), c.ps.NumPaths())
		}
	case wire.TError:
		var em wire.ErrorMsg
		if wire.DecodeError(payload, &em) == nil {
			conn.Close()
			return fmt.Errorf("serve: bin client: %s (status %d)", em.Msg, em.Code)
		}
		conn.Close()
		return fmt.Errorf("serve: bin client: malformed error reply")
	default:
		conn.Close()
		return fmt.Errorf("serve: bin client: unexpected %s reply to hello", t)
	}
	conn.SetDeadline(time.Time{})
	c.conn = conn
	c.br = br
	c.bw = bufio.NewWriterSize(conn, wireWriteBufSize)
	c.haveLast = false // fresh connection, fresh delta chain
	return nil
}

// redial re-establishes a broken connection with exponential backoff.
func (c *BinClient) redial() error {
	c.Close()
	backoff := c.opt.RedialBackoff
	var err error
	for i := 0; i < c.opt.RedialAttempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		if err = c.dial(); err == nil {
			c.redials++
			c.tel.onRedial()
			return nil
		}
	}
	return fmt.Errorf("serve: bin client: redial failed after %d attempts: %w", c.opt.RedialAttempts, err)
}

func (c *BinClient) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	return c.redial()
}

// wireError is an application-level error answered by the server.
type wireError struct {
	Code int
	Msg  string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("serve: wire: %s (status %d)", e.Msg, e.Code)
}

// readReply reads one response frame and resolves it into either a
// decision (full or delta-applied), an ack (nil decision), or an
// error. Delta gaps trigger an inline resync only when resync is set
// (safe when nothing else is in flight); otherwise they surface as
// errors and the caller reconnects.
func (c *BinClient) readReply(deadline time.Time, resync bool) (*wire.Decision, error) {
	c.conn.SetReadDeadline(deadline)
	t, payload, err := c.dec.ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("serve: bin client: %w", err)
	}
	c.bytesIn += int64(len(payload)) + wire.FrameOverhead
	switch t {
	case wire.TAck:
		return nil, nil
	case wire.TError:
		var em wire.ErrorMsg
		if err := wire.DecodeError(payload, &em); err != nil {
			return nil, err
		}
		return nil, &wireError{Code: em.Code, Msg: em.Msg}
	case wire.TDecision:
		if err := wire.DecodeDecision(payload, c.spare); err != nil {
			return nil, err
		}
		c.fulls++
		c.tel.onDecision(false)
		if c.spare.Warming {
			// Warming carries no ratios; the delta base stays put.
			return c.spare, nil
		}
		c.last, c.spare = c.spare, c.last
		c.haveLast = true
		return c.last, nil
	case wire.TDelta:
		if err := wire.DecodeDelta(payload, &c.delta); err != nil {
			return nil, err
		}
		base := c.last
		if !c.haveLast {
			base = nil
		}
		if err := wire.ApplyDelta(base, &c.delta, wire.Layout(c.ps.PairPaths), c.spare); err != nil {
			if errors.Is(err, wire.ErrDeltaGap) && resync {
				return c.resyncFull(deadline)
			}
			return nil, err
		}
		c.deltas++
		c.tel.onDecision(true)
		c.last, c.spare = c.spare, c.last
		return c.last, nil
	default:
		return nil, fmt.Errorf("serve: bin client: unexpected %s reply", t)
	}
}

// resyncFull recovers from a delta gap: request a full decision and
// adopt it as the new base.
func (c *BinClient) resyncFull(deadline time.Time) (*wire.Decision, error) {
	c.resyncs++
	c.tel.onResync()
	if _, err := c.bw.Write(c.enc.Resync()); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(deadline)
	t, payload, err := c.dec.ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("serve: bin client: resync: %w", err)
	}
	if t != wire.TDecision {
		return nil, fmt.Errorf("serve: bin client: resync answered with %s", t)
	}
	if err := wire.DecodeDecision(payload, c.spare); err != nil {
		return nil, err
	}
	c.fulls++
	c.tel.onDecision(false)
	if !c.spare.Warming {
		c.last, c.spare = c.spare, c.last
		c.haveLast = true
		return c.last, nil
	}
	return c.spare, nil
}

// roundTrip sends one request frame and reads its reply, redialing once
// on a transport failure. frame is consumed before redial (it aliases
// the encoder buffer), so build is re-run via the build closure.
func (c *BinClient) roundTrip(build func() []byte) (*wire.Decision, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		err := c.writeFlush(build())
		var d *wire.Decision
		if err == nil {
			d, err = c.readReply(time.Now().Add(c.opt.ReadTimeout), true)
		}
		if err == nil {
			return d, nil
		}
		var we *wireError
		if errors.As(err, &we) {
			return nil, err // application error: the connection is fine
		}
		if attempt > 0 {
			return nil, err
		}
		// Transport fault: redial once and retry (at-least-once ingest).
		if rerr := c.redial(); rerr != nil {
			return nil, rerr
		}
	}
}

func (c *BinClient) writeFlush(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// wireToRouting converts a decoded wire decision into the JSON
// surface's response type, so both transports hand callers the same
// shape. Ratios are copied (wire decode buffers are reused); a zero
// AtUnixNanos maps back to the zero time so warming responses match the
// JSON path field for field.
func wireToRouting(topo string, d *wire.Decision) *RoutingResponse {
	out := &RoutingResponse{
		Topology:     topo,
		Seq:          d.Seq,
		Snapshot:     d.Snapshot,
		Version:      d.Version,
		Rerouted:     d.Rerouted,
		ChurnLimited: d.ChurnLimited,
		Warming:      d.Warming,
	}
	if len(d.Ratios) > 0 {
		out.Ratios = append([]float64(nil), d.Ratios...)
	}
	if d.AtUnixNanos != 0 {
		out.At = time.Unix(0, d.AtUnixNanos)
	}
	return out
}

// PostSnapshot ingests one demand snapshot synchronously over the
// stream and returns the decision for the window ending at it.
func (c *BinClient) PostSnapshot(demand []float64) (*RoutingResponse, error) {
	d, err := c.roundTrip(func() []byte {
		return c.enc.Snapshot(&wire.Snapshot{Demand: demand})
	})
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("serve: bin client: ack for a sync snapshot")
	}
	return wireToRouting(c.topo, d), nil
}

// PostSnapshotAsync ingests one snapshot without waiting for a
// decision.
func (c *BinClient) PostSnapshotAsync(demand []float64) error {
	d, err := c.roundTrip(func() []byte {
		return c.enc.Snapshot(&wire.Snapshot{Demand: demand, Async: true})
	})
	if err != nil {
		return err
	}
	if d != nil {
		return fmt.Errorf("serve: bin client: decision for an async snapshot")
	}
	return nil
}

// Routing returns the currently published decision.
func (c *BinClient) Routing() (*RoutingResponse, error) {
	d, err := c.roundTrip(func() []byte { return c.enc.Routing() })
	if err != nil {
		return nil, err
	}
	return wireToRouting(c.topo, d), nil
}

// ReportFailures installs the failed-link set (empty clears) and
// returns the rerouted decision.
func (c *BinClient) ReportFailures(links [][2]int) (*RoutingResponse, error) {
	if links == nil {
		links = [][2]int{}
	}
	d, err := c.roundTrip(func() []byte { return c.enc.Failures(&wire.Failures{Links: links}) })
	if err != nil {
		return nil, err
	}
	return wireToRouting(c.topo, d), nil
}

// streamDepth is how many requests Stream keeps unanswered on the
// connection. It is a constant: on the GEANT serve benchmarks the
// pipeline sits at this depth with no response slow enough to signal
// congestion (DESIGN.md §11), so there is nothing for an adaptive window
// to do. Should the stream ever need backpressure, the server ought to
// grant credit explicitly rather than have the client infer congestion
// from RTTs.
const streamDepth = 256

// StreamStats summarizes one pipelined Stream run.
type StreamStats struct {
	// Requests is how many snapshots were sent; Decisions how many
	// decision responses arrived (ack responses to async ingests are
	// counted in Acks).
	Requests, Decisions, Acks int
	// Elapsed is the wall-clock span from first send to last response.
	Elapsed time.Duration
	// MeanRTTMicros / P50RTTMicros / P99RTTMicros summarize per-request
	// round-trip times.
	MeanRTTMicros, P50RTTMicros, P99RTTMicros float64
	// MaxWindow is the peak number of requests in flight (sent and not
	// yet answered); it never exceeds streamDepth.
	MaxWindow int
	// CongestionEvents is always 0: the fixed-depth stream never backs
	// off. The field stays because the benchmark harness (perfbench)
	// reports it as its serve.congestion_events layer.
	CongestionEvents int
	// BytesSent / BytesReceived are wire-level frame byte counts.
	BytesSent, BytesReceived int64
}

// Stream pipelines n snapshot ingests through the connection: requests
// are sent while fewer than streamDepth are unanswered, and responses
// are consumed concurrently in request order, each timed against its
// send. demand(i) must return the i'th snapshot; onDecision, when
// non-nil, observes every decision in order (the pointee is reused —
// copy to retain).
//
// Stream does not redial mid-run: any transport fault aborts with an
// error, so a load measurement is never silently split across
// connections.
func (c *BinClient) Stream(n int, demand func(i int) []float64, onDecision func(i int, d *wire.Decision)) (*StreamStats, error) {
	return c.stream(n, demand, onDecision, false)
}

// StreamAsync pipelines n asynchronous ingests (the server acks each
// without computing a per-request decision; bursts coalesce
// server-side).
func (c *BinClient) StreamAsync(n int, demand func(i int) []float64) (*StreamStats, error) {
	return c.stream(n, demand, nil, true)
}

func (c *BinClient) stream(n int, demand func(i int) []float64, onDecision func(i int, d *wire.Decision), async bool) (*StreamStats, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	stats := &StreamStats{}

	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		done  int
		rdErr error
	)
	sendTimes := make([]time.Time, n)
	rtts := make([]time.Duration, 0, n)
	bytesInBase := c.bytesIn

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d, err := c.readReply(time.Now().Add(c.opt.ReadTimeout), false)
			now := time.Now()
			mu.Lock()
			if err != nil {
				rdErr = err
				cond.Signal()
				mu.Unlock()
				return
			}
			sample := now.Sub(sendTimes[i])
			done++
			cond.Signal()
			mu.Unlock()
			rtts = append(rtts, sample)
			c.tel.observeRTT(sample)
			if d == nil {
				stats.Acks++
			} else {
				stats.Decisions++
				if onDecision != nil {
					onDecision(i, d)
				}
			}
		}
	}()

	start := time.Now()
	sendErr := error(nil)
	for i := 0; i < n && sendErr == nil; i++ {
		mu.Lock()
		for i-done >= streamDepth && rdErr == nil {
			// The pipeline is full: push buffered requests to the server
			// before blocking on its responses.
			mu.Unlock()
			if err := c.bw.Flush(); err != nil {
				sendErr = err
			}
			mu.Lock()
			if sendErr != nil {
				break
			}
			if i-done >= streamDepth && rdErr == nil {
				cond.Wait()
			}
		}
		if rdErr != nil || sendErr != nil {
			mu.Unlock()
			break
		}
		sendTimes[i] = time.Now()
		stats.MaxWindow = max(stats.MaxWindow, i+1-done)
		mu.Unlock()
		frame := c.enc.Snapshot(&wire.Snapshot{Demand: demand(i), Async: async})
		stats.BytesSent += int64(len(frame))
		if _, err := c.bw.Write(frame); err != nil {
			sendErr = err
		}
	}
	if sendErr == nil {
		sendErr = c.bw.Flush()
	}
	if sendErr != nil {
		// Unblock the reader: it will fail its next read promptly.
		c.conn.Close()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	stats.BytesReceived = c.bytesIn - bytesInBase

	if rdErr != nil || sendErr != nil {
		c.Close() // the stream is desynchronized; next op redials
		err := rdErr
		if err == nil {
			err = sendErr
		}
		return stats, fmt.Errorf("serve: bin client: stream aborted after %d/%d responses: %w", done, n, err)
	}
	stats.Requests = n
	fillRTTStats(stats, rtts)
	return stats, nil
}

// fillRTTStats computes the RTT summary (nearest-rank quantiles, the
// metrics.go convention).
func fillRTTStats(stats *StreamStats, rtts []time.Duration) {
	if len(rtts) == 0 {
		return
	}
	var sum time.Duration
	for _, r := range rtts {
		sum += r
	}
	stats.MeanRTTMicros = micros(sum / time.Duration(len(rtts)))
	sorted := append([]time.Duration(nil), rtts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	stats.P50RTTMicros = micros(quantileDur(sorted, 0.50))
	stats.P99RTTMicros = micros(quantileDur(sorted, 0.99))
}
