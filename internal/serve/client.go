package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// defaultHTTPClient is the shared transport for clients without an
// explicit one: dial and response-header timeouts, an overall request
// deadline, and a keep-alive pool sized for replay-rate request streams.
// http.DefaultClient has none of these — a hung server would hang the
// caller forever and every closed-loop request could pay a fresh dial.
var defaultHTTPClient = &http.Client{
	Timeout: 2 * time.Minute,
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          128,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 1 * time.Minute,
		ExpectContinueTimeout: 1 * time.Second,
	},
}

// Client is a thin typed wrapper over the serving API, used by the
// closed-loop replay harness, cmd/served's drive mode and the serving
// example.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (a shared client with sane timeouts and a
	// keep-alive pool when nil).
	HTTP *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil).
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return apiError(method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// apiError decodes the server's JSON error body.
func apiError(method, path string, status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("serve: %s %s: %s (status %d)", method, path, e.Error, status)
	}
	return fmt.Errorf("serve: %s %s: status %d", method, path, status)
}

// Topologies lists served topology names.
func (c *Client) Topologies() ([]string, error) {
	var out struct {
		Topologies []string `json:"topologies"`
	}
	err := c.do(http.MethodGet, "/v1/topologies", nil, &out)
	return out.Topologies, err
}

// PostSnapshot ingests one demand snapshot synchronously and returns the
// decision computed from the window ending at it.
func (c *Client) PostSnapshot(topo string, demand []float64) (*RoutingResponse, error) {
	var out RoutingResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", SnapshotRequest{Demand: demand}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// PostSnapshotAsync ingests one demand snapshot without waiting for the
// decision.
func (c *Client) PostSnapshotAsync(topo string, demand []float64) error {
	return c.do(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", SnapshotRequest{Demand: demand, Async: true}, nil)
}

// Routing returns the topology's currently published decision.
func (c *Client) Routing(topo string) (*RoutingResponse, error) {
	var out RoutingResponse
	err := c.do(http.MethodGet, "/v1/topologies/"+topo+"/routing", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ReportFailures installs the failed-link set (empty clears) and returns
// the rerouted decision.
func (c *Client) ReportFailures(topo string, links [][2]int) (*RoutingResponse, error) {
	if links == nil {
		links = [][2]int{}
	}
	var out RoutingResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/failures", FailuresRequest{Links: links}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// UploadCheckpoint uploads serialized model JSON (figret.MarshalJSON)
// and activates it.
func (c *Client) UploadCheckpoint(topo string, model []byte) (*CheckpointResponse, error) {
	var out CheckpointResponse
	// RawMessage passes the already-serialized checkpoint through do's
	// marshal step verbatim.
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/checkpoints", json.RawMessage(model), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Rollback re-activates the checkpoint preceding the active one.
func (c *Client) Rollback(topo string) (*CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/checkpoints/rollback", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoints lists the topology's registered checkpoints.
func (c *Client) Checkpoints(topo string) ([]CheckpointInfo, error) {
	var out struct {
		Checkpoints []CheckpointInfo `json:"checkpoints"`
	}
	err := c.do(http.MethodGet, "/v1/topologies/"+topo+"/checkpoints", nil, &out)
	return out.Checkpoints, err
}

// Metrics returns every topology's serving counters.
func (c *Client) Metrics() (map[string]Metrics, error) {
	var out map[string]Metrics
	err := c.do(http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}
