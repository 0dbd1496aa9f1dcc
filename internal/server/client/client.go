// Package client is the Go client of the ayd service: yield queries,
// model install/delete, flow-job submission/polling/cancellation, and
// consumption of the SSE event stream. It speaks the wire types of
// internal/server/api against any base URL, so it works equally against
// cmd/ayd and an in-process httptest server.
//
// A zero-config client addresses the pre-tenancy /v1/... routes (the
// default tenant) and emits pre-tenancy request bodies, so it works
// against old servers unchanged; WithTenant scopes every call to
// /v1/t/{tenant}/... instead.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"analogyield/internal/httpx"
	"analogyield/internal/server/api"
)

// Client calls one ayd server, optionally scoped to one tenant.
type Client struct {
	base   string
	tenant string // "" = legacy /v1 routes (default tenant)
	hc     *http.Client
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (tests inject
// an httptest transport; production callers set pooling/timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTenant scopes every call to the named tenant's routes
// (/v1/t/{tenant}/...). The empty string keeps the pre-tenancy /v1
// routes, which address the default tenant on any server version.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// New creates a client for the server at base (e.g.
// "http://127.0.0.1:8080").
//
// The default transport is tuned for a service client rather than a
// browser: net/http's DefaultTransport keeps only 2 idle connections
// per host, so any caller issuing more than 2 concurrent requests
// churns through TCP handshakes and TIME_WAIT sockets on every burst.
// Compression stays off — the payloads are small JSON and gzip costs
// more than it saves on a loopback or rack-local link. Override with
// WithHTTPClient when a proxy or custom TLS setup is needed.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			MaxConnsPerHost:     256,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Tenant reports the tenant the client is scoped to ("" = default via
// the legacy routes).
func (c *Client) Tenant() string { return c.tenant }

// path builds a route under the client's tenant scope; suffix segments
// are escaped by the caller where they carry user input.
func (c *Client) path(suffix string) string {
	if c.tenant == "" {
		return "/v1/" + suffix
	}
	return "/v1/t/" + url.PathEscape(c.tenant) + "/" + suffix
}

// do runs one JSON round trip; out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Every call carries a fresh request ID; the server propagates it
	// into its request log and echoes it on the response, so a failed
	// call's api.Error can be matched to the exact server log line.
	reqID := httpx.NewRequestID()
	req.Header.Set(httpx.RequestIDHeader, reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if id := resp.Header.Get(httpx.RequestIDHeader); id != "" {
		reqID = id // older servers don't echo; keep what we sent
	}
	if resp.StatusCode >= 400 {
		var apiErr api.Error
		if jerr := json.NewDecoder(resp.Body).Decode(&apiErr); jerr == nil && apiErr.Message != "" {
			apiErr.Status = resp.StatusCode
			if apiErr.RequestID == "" {
				apiErr.RequestID = reqID
			}
			return &apiErr
		}
		return &api.Error{Status: resp.StatusCode, Message: resp.Status, RequestID: reqID}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Query answers one yield query.
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (*api.QueryResponse, error) {
	var out api.QueryResponse
	if err := c.do(ctx, http.MethodPost, c.path("yield/query"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryBatch answers several queries in one round trip; Results[i]
// answers reqs[i].
func (c *Client) QueryBatch(ctx context.Context, reqs []api.QueryRequest) ([]api.QueryResult, error) {
	var out api.BatchQueryResponse
	if err := c.do(ctx, http.MethodPost, c.path("yield/query"), api.BatchQueryRequest{Queries: reqs}, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Models lists the server's models.
func (c *Client) Models(ctx context.Context) ([]api.ModelInfo, error) {
	var out []api.ModelInfo
	if err := c.do(ctx, http.MethodGet, c.path("models"), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Model describes one model.
func (c *Client) Model(ctx context.Context, name string) (*api.ModelInfo, error) {
	var out api.ModelInfo
	if err := c.do(ctx, http.MethodGet, c.path("models/")+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InstallModel uploads a finished model artefact into the client's
// tenant catalog and returns the catalog entry (including the
// content-addressed version the store assigned).
func (c *Client) InstallModel(ctx context.Context, req api.InstallModelRequest) (*api.ModelInfo, error) {
	var out api.ModelInfo
	if err := c.do(ctx, http.MethodPost, c.path("models"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteModel removes a model (all versions) from the client's tenant
// catalog.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, c.path("models/")+url.PathEscape(name), nil, nil)
}

// SubmitFlow submits a model-building flow job.
func (c *Client) SubmitFlow(ctx context.Context, req api.FlowRequest) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodPost, c.path("flows"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Flows lists submitted jobs.
func (c *Client) Flows(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	if err := c.do(ctx, http.MethodGet, c.path("flows"), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Flow polls one job's status.
func (c *Client) Flow(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodGet, c.path("flows/")+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelFlow cancels a queued or running job.
func (c *Client) CancelFlow(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodDelete, c.path("flows/")+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamEvents consumes a job's SSE event stream, invoking fn for each
// event in order until the stream ends (the job's terminal job_done
// event, server shutdown, or ctx cancellation) or fn returns an error,
// which is propagated. fromSeq resumes after a previously seen event
// (0 = from the beginning of the replay window).
func (c *Client) StreamEvents(ctx context.Context, id string, fromSeq int, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+c.path("flows/")+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(httpx.RequestIDHeader, httpx.NewRequestID())
	if fromSeq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(fromSeq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr api.Error
		if jerr := json.NewDecoder(resp.Body).Decode(&apiErr); jerr == nil && apiErr.Message != "" {
			apiErr.Status = resp.StatusCode
			return &apiErr
		}
		return &api.Error{Status: resp.StatusCode, Message: resp.Status}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		case line == "" && len(data) > 0:
			var ev api.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("client: bad event payload: %w", err)
			}
			data = data[:0]
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// WaitFlow polls a job until it reaches a terminal state, at cadence
// poll (0 → 200ms).
func (c *Client) WaitFlow(ctx context.Context, id string, poll time.Duration) (*api.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Flow(ctx, id)
		if err != nil {
			return nil, err
		}
		if api.Terminal(st.State) {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
