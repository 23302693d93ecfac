package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"statsize/internal/server"
)

// newClient builds a Client against base with fast, deterministic
// backoff.
func newClient(t testing.TB, base string) *Client {
	t.Helper()
	c, err := New(Config{
		BaseURL:     base,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		MaxRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetriesIdempotentUntilSuccess: a flaky analyze (two 503s, then
// 200) succeeds without surfacing the transient failures.
func TestRetriesIdempotentUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"pool_full","message":"try later"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"objective":1.5,"objective_name":"mean","total_width":10,"num_gates":4}`)
	}))
	defer ts.Close()

	resp, err := newClient(t, ts.URL).Analyze(context.Background(), "s1", &server.AnalyzeRequest{})
	if err != nil {
		t.Fatalf("analyze through transient 503s: %v", err)
	}
	if resp.Objective != 1.5 || calls.Load() != 3 {
		t.Fatalf("objective %v after %d calls, want 1.5 after 3", resp.Objective, calls.Load())
	}
}

// TestNeverRetriesMutations: resize, checkpoint, rollback, and close
// see exactly one attempt no matter how retryable the failure looks.
func TestNeverRetriesMutations(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"draining","message":"go away"}}`)
	}))
	defer ts.Close()

	c := newClient(t, ts.URL)
	ctx := context.Background()
	checks := []struct {
		name string
		call func() error
	}{
		{"resize", func() error {
			_, err := c.Resize(ctx, "s1", &server.ResizeRequest{Gate: 1, Width: 2})
			return err
		}},
		{"checkpoint", func() error { _, err := c.Checkpoint(ctx, "s1"); return err }},
		{"rollback", func() error { _, err := c.Rollback(ctx, "s1"); return err }},
		{"close", func() error { return c.Close(ctx, "s1") }},
	}
	for _, tc := range checks {
		calls.Store(0)
		err := tc.call()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
			t.Fatalf("%s: err %v, want 503 APIError", tc.name, err)
		}
		if ae.RetryAfter != time.Second {
			t.Fatalf("%s: RetryAfter %v, want 1s from the header", tc.name, ae.RetryAfter)
		}
		if calls.Load() != 1 {
			t.Fatalf("%s made %d attempts, want exactly 1", tc.name, calls.Load())
		}
	}
}

// TestNoRetryOnDefinitiveError: a 404 is an answer, not a transient.
func TestNoRetryOnDefinitiveError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"no_session","message":"nope"}}`)
	}))
	defer ts.Close()

	_, err := newClient(t, ts.URL).Analyze(context.Background(), "s1", &server.AnalyzeRequest{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "no_session" {
		t.Fatalf("err %v, want no_session APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("definitive 404 drew %d attempts, want 1", calls.Load())
	}
}

// TestHonorsRetryAfter: the server's hint overrides the jittered draw.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"shed","message":"overloaded","retry_after_s":1}}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok","uptime_s":1,"go_design":"statsized"}`)
	}))
	defer ts.Close()

	startAt := time.Now()
	if _, err := newClient(t, ts.URL).Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	if elapsed := time.Since(startAt); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v; Retry-After: 1 demands ~1s", elapsed)
	}
}

// TestParseRetryAfterForms: both RFC 9110 Retry-After forms resolve to
// a clamped delay; garbage and past dates degrade to "no hint".
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, time.August, 7, 12, 0, 0, 0, time.UTC)
	httpDate := func(t time.Time) string { return t.UTC().Format(http.TimeFormat) }
	cases := []struct {
		name  string
		value string
		date  string
		want  time.Duration
	}{
		{"delta seconds", "7", "", 7 * time.Second},
		{"delta zero", "0", "", 0},
		{"delta negative", "-3", "", 0},
		{"http date vs Date header", httpDate(now.Add(90 * time.Second)), httpDate(now), 90 * time.Second},
		{"http date vs local clock", httpDate(now.Add(30 * time.Second)), "", 30 * time.Second},
		{"http date skewed server clock", httpDate(now.Add(time.Hour + 10*time.Second)), httpDate(now.Add(time.Hour)), 10 * time.Second},
		{"http date in the past", httpDate(now.Add(-time.Minute)), httpDate(now), 0},
		{"rfc850 date", now.Add(45 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), httpDate(now), 45 * time.Second},
		{"garbage", "soon", "", 0},
		{"garbage date header", httpDate(now.Add(20 * time.Second)), "yesterday-ish", 20 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.value, tc.date, now); got != tc.want {
				t.Errorf("parseRetryAfter(%q, %q) = %v, want %v", tc.value, tc.date, got, tc.want)
			}
		})
	}
}

// TestHonorsRetryAfterHTTPDate: the HTTP-date form is honored end to
// end, not silently dropped to the jittered draw.
func TestHonorsRetryAfterHTTPDate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			now := time.Now()
			w.Header().Set("Date", now.UTC().Format(http.TimeFormat))
			w.Header().Set("Retry-After", now.Add(time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"shed","message":"overloaded"}}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok","uptime_s":1,"go_design":"statsized"}`)
	}))
	defer ts.Close()

	startAt := time.Now()
	if _, err := newClient(t, ts.URL).Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	// The HTTP-date rounds down to whole seconds, so the observed wait
	// can be just under the nominal 1s; anything near it proves the
	// date was parsed (the fallback jitter is capped at 4ms here).
	if elapsed := time.Since(startAt); elapsed < 500*time.Millisecond {
		t.Fatalf("retried after %v; the HTTP-date Retry-After demands ~1s", elapsed)
	}
}

// TestDeadlineHeaderThreaded: a context deadline becomes X-Deadline-Ms.
func TestDeadlineHeaderThreaded(t *testing.T) {
	var sawMs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(server.HeaderDeadlineMs), 10, 64)
		sawMs.Store(ms)
		fmt.Fprint(w, `{"status":"ok","uptime_s":1,"go_design":"statsized"}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := newClient(t, ts.URL).Health(ctx); err != nil {
		t.Fatal(err)
	}
	if ms := sawMs.Load(); ms < 1000 || ms > 5000 {
		t.Fatalf("X-Deadline-Ms %d, want within (1000, 5000] for a 5s context", ms)
	}
}

// TestRetryStopsAtContextDeadline: the retry loop respects the caller's
// context rather than burning all attempts.
func TestRetryStopsAtContextDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"pool_full","message":"full"}}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	startAt := time.Now()
	_, err := newClient(t, ts.URL).Health(ctx)
	if err == nil {
		t.Fatal("health succeeded against a permanently-full server")
	}
	if elapsed := time.Since(startAt); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past a 200ms context", elapsed)
	}
}

// TestHealthDrainingIsAnError pins what Health does with a draining
// daemon's 503: the health report is the daemon's final answer, so
// Health makes one request and returns the decoded report together
// with a 503 APIError coded draining.
func TestHealthDrainingIsAnError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining","uptime_s":1,"service":"statsized"}`)
	}))
	defer ts.Close()

	resp, err := newClient(t, ts.URL).Health(context.Background())
	if resp == nil || resp.Status != "draining" || resp.UptimeS != 1 {
		t.Fatalf("draining health returned %+v, want the decoded draining report", resp)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != server.CodeDraining {
		t.Fatalf("err %v, want a 503 APIError coded %q", err, server.CodeDraining)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("health made %d requests, want 1", n)
	}
}
