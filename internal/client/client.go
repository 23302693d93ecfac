// Package client is the typed HTTP client for the statsized daemon: one
// method per endpoint, per-attempt timeouts, capped exponential backoff
// with full jitter, Retry-After honoring, and optimize-stream
// reconnection that resumes a broken run from the last iteration
// received.
//
// Retries are restricted to idempotent requests. Opening a session is
// idempotent (the daemon pools one session per (design, client) key, so
// a replayed open attaches), and so are analyze, what-if, info, health,
// and stats — they read. Resize, checkpoint, rollback, and close mutate
// session state and are never retried: a resize whose response was lost
// may have committed, and replaying it would double-apply.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"statsize/internal/server"
)

// maxResponseBytes bounds every response body read; the daemon's
// replies are small and an unbounded read of a confused proxy's output
// must not balloon the client.
const maxResponseBytes = 8 << 20

// Config parameterizes a Client. The zero value needs only BaseURL.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8790".
	BaseURL string
	// Transport overrides the HTTP transport (fault injection hooks in
	// here); nil means http.DefaultTransport.
	Transport http.RoundTripper
	// AttemptTimeout bounds each individual attempt of a unary request
	// (default 30s). Optimize streams are exempt — they are legitimately
	// long-lived — but their connection phase uses it.
	AttemptTimeout time.Duration
	// MaxRetries caps retries after the first attempt of an idempotent
	// request, and consecutive no-progress reconnects of an optimize
	// stream (default 3).
	MaxRetries int
	// BackoffBase and BackoffCap shape the exponential backoff: attempt
	// n sleeps rand · min(BackoffCap, BackoffBase·2ⁿ) (full jitter).
	// Defaults 100ms and 5s. A server Retry-After overrides the draw.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// rand is the jitter source; tests may fix it.
	rand func() float64
}

func (c Config) normalize() Config {
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.rand == nil {
		c.rand = rand.Float64
	}
	return c
}

// APIError is a non-2xx daemon response: the status, the machine
// -readable code from the error envelope, and the server's retry hint
// when it gave one.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
	// RunID accompanies run_active conflicts: the id of the run already
	// streaming on the session.
	RunID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("statsized: %d %s: %s", e.Status, e.Code, e.Message)
}

// Client talks to one statsized daemon. Safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
}

// New builds a Client over cfg.
func New(cfg Config) (*Client, error) {
	cfg = cfg.normalize()
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	return &Client{
		cfg: cfg,
		// No http.Client.Timeout: it would sever optimize streams
		// mid-run. Unary attempts are bounded per-request instead.
		hc: &http.Client{Transport: cfg.Transport},
	}, nil
}

// backoff sleeps before retry attempt n (0-based), honoring the
// server's hint when present. Returns false if ctx expired first.
func (c *Client) backoff(ctx context.Context, n int, hint time.Duration) bool {
	d := hint
	if d <= 0 {
		step := min(c.cfg.BackoffCap, c.cfg.BackoffBase<<min(n, 16))
		d = time.Duration(c.cfg.rand() * float64(step))
	}
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// deadlineHeader mirrors the caller's context deadline into
// X-Deadline-Ms so the daemon stops working the moment the client
// stops waiting.
func deadlineHeader(ctx context.Context, h http.Header) {
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1 // let the server reject it; 0 would mean "absent" semantics drift
		}
		h.Set(server.HeaderDeadlineMs, strconv.FormatInt(ms, 10))
	}
}

// transient reports whether a failed attempt is worth retrying once
// the endpoint allows retries at all: a transport failure, an overload
// shed, pool pressure, or a transient upstream 5xx. Any other APIError
// is a definitive answer.
func transient(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return true
	}
	switch ae.Status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// parseRetryAfter interprets a Retry-After header in both RFC 9110
// forms. Delta-seconds is the common case; an HTTP-date is converted
// to a delay relative to the response's own Date header when present
// (the two stamps come from the same server clock, so their difference
// is immune to client/server clock skew) and the local clock
// otherwise. Dates in the past — and negative deltas — clamp to zero,
// which the backoff treats as "no hint" and replaces with its jittered
// draw. Unparseable values also yield zero: a garbled hint must not
// stall or crash the retry loop.
func parseRetryAfter(value, date string, now time.Time) time.Duration {
	if s, err := strconv.Atoi(value); err == nil {
		if s <= 0 {
			return 0
		}
		return time.Duration(s) * time.Second
	}
	at, err := http.ParseTime(value)
	if err != nil {
		return 0
	}
	base := now
	if d, err := http.ParseTime(date); err == nil {
		base = d
	}
	if delay := at.Sub(base); delay > 0 {
		return delay
	}
	return 0
}

// parseError reads a non-2xx response into an APIError. The one such
// body without the error envelope that the daemon sends is the health
// report /healthz answers while draining: it is decoded into out, when
// out is non-nil, and coded "draining".
func parseError(resp *http.Response, out any) *APIError {
	ae := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		ae.RetryAfter = parseRetryAfter(ra, resp.Header.Get("Date"), time.Now())
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		ae.Code = "unreadable_error"
		ae.Message = err.Error()
		return ae
	}
	var env struct {
		Status string `json:"status"`
		Error  *struct {
			Code        string `json:"code"`
			Message     string `json:"message"`
			RetryAfterS int    `json:"retry_after_s"`
			RunID       string `json:"run_id"`
		} `json:"error"`
	}
	jsonErr := json.Unmarshal(body, &env)
	switch {
	case jsonErr == nil && env.Error != nil:
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.RunID = env.Error.RunID
		if ae.RetryAfter == 0 && env.Error.RetryAfterS > 0 {
			ae.RetryAfter = time.Duration(env.Error.RetryAfterS) * time.Second
		}
	case jsonErr == nil && env.Status == "draining" && json.Unmarshal(body, out) == nil:
		ae.Code = server.CodeDraining
		ae.Message = "the daemon is draining"
	default:
		ae.Code = "non_json_error"
		ae.Message = strings.TrimSpace(string(body))
	}
	return ae
}

// do runs one unary exchange: marshal, attempt with a per-attempt
// timeout, decode, and retry a failed attempt under the backoff policy
// while retry accepts its error. A nil retry makes one attempt, as
// every mutation must: a lost response may have committed.
func (c *Client) do(ctx context.Context, method, path string, in, out any, retry func(error) bool) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: marshal %s %s: %w", method, path, err)
		}
	}
	attempts := 1
	if retry != nil {
		attempts += c.cfg.MaxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			var hint time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) {
				hint = ae.RetryAfter
			}
			if !c.backoff(ctx, attempt-1, hint) {
				break
			}
		}
		lastErr = c.attempt(ctx, method, path, body, out)
		if lastErr == nil || retry == nil || !retry(lastErr) {
			return lastErr
		}
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// attempt is one bounded exchange.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	deadlineHeader(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return parseError(resp, out)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
		return err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("client: read %s %s: %w", method, path, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// Open opens (or attaches to) a pooled session. Idempotent: the daemon
// keeps one session per (design, client) key, so a replay attaches.
func (c *Client) Open(ctx context.Context, req *server.OpenSessionRequest) (*server.OpenSessionResponse, error) {
	var out server.OpenSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out, transient); err != nil {
		return nil, err
	}
	return &out, nil
}

// Info fetches session metadata. Idempotent.
func (c *Client) Info(ctx context.Context, sessionID string) (*server.SessionInfoResponse, error) {
	var out server.SessionInfoResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+sessionID, nil, &out, transient); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze summarizes the session's current timing. Idempotent.
func (c *Client) Analyze(ctx context.Context, sessionID string, req *server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	var out server.AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/analyze", req, &out, transient); err != nil {
		return nil, err
	}
	return &out, nil
}

// WhatIf evaluates hypothetical resizes without committing. Idempotent.
func (c *Client) WhatIf(ctx context.Context, sessionID string, req *server.WhatIfRequest) (*server.WhatIfResponse, error) {
	var out server.WhatIfResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/whatif", req, &out, transient); err != nil {
		return nil, err
	}
	return &out, nil
}

// Resize commits one gate resize. NOT idempotent — never retried: a
// lost response may have committed, and a replay would re-apply.
func (c *Client) Resize(ctx context.Context, sessionID string, req *server.ResizeRequest) (*server.ResizeResponse, error) {
	var out server.ResizeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/resize", req, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoint pushes a restore point. NOT idempotent — never retried.
func (c *Client) Checkpoint(ctx context.Context, sessionID string) (*server.CheckpointResponse, error) {
	var out server.CheckpointResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/checkpoint", nil, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rollback pops to the last checkpoint. NOT idempotent — never retried.
func (c *Client) Rollback(ctx context.Context, sessionID string) (*server.CheckpointResponse, error) {
	var out server.CheckpointResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/rollback", nil, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close releases the pooled session. Not retried: a second delete of a
// session the first attempt already closed is a 404, not a success.
func (c *Client) Close(ctx context.Context, sessionID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+sessionID, nil, nil, nil)
}

// Health fetches /healthz, including the admission controller's
// overload snapshot. Idempotent, but a draining daemon's answer is
// final: its 503 carries the health report itself, so Health makes
// that one request and returns the report (Status "draining") together
// with an *APIError whose Code is "draining".
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	var out server.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out, func(err error) bool {
		return out.Status != "draining" && transient(err)
	})
	if err != nil && out.Status != "draining" {
		return nil, err
	}
	return &out, err
}

// Stats fetches /stats. Idempotent.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var out server.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &out, transient); err != nil {
		return nil, err
	}
	return &out, nil
}
