package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"statsize"
)

// noLog silences the daemon in tests.
func noLog(string, ...any) {}

// newDaemon builds a Server over a fresh engine and registers its
// shutdown with the test.
func newDaemon(t testing.TB, cfg Config) *Server {
	t.Helper()
	eng, err := statsize.New()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logf == nil {
		cfg.Logf = noLog
	}
	s := New(eng, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// newHTTP mounts the daemon on an httptest server.
func newHTTP(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newDaemon(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body (marshaled, or raw bytes) and returns the status
// and response body.
func postJSON(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case nil:
	case []byte:
		buf = b
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// getJSON fetches url and returns the status and body.
func getJSON(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// mustUnmarshal decodes into dst or fails the test.
func mustUnmarshal(t testing.TB, b []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(b, dst); err != nil {
		t.Fatalf("unmarshal %q: %v", b, err)
	}
}

// openSession opens a pooled session over HTTP and returns the response.
func openSession(t testing.TB, base string, req *OpenSessionRequest) *OpenSessionResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/sessions", req)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("open session: status %d body %s", status, body)
	}
	var resp OpenSessionResponse
	mustUnmarshal(t, body, &resp)
	return &resp
}

// errorCode extracts the error envelope code from a non-2xx body.
func errorCode(t testing.TB, body []byte) string {
	t.Helper()
	var env errorEnvelope
	mustUnmarshal(t, body, &env)
	if env.Error == nil {
		t.Fatalf("no error envelope in %s", body)
	}
	return env.Error.Code
}

// TestSessionLifecycle walks the whole HTTP surface against one pooled
// c17 session: open, attach, analyze, what-if (single and batch),
// checkpoint, resize, rollback, close.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newHTTP(t, Config{})

	created := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "alice", Bins: 120})
	if !created.Created {
		t.Fatalf("first open not created: %+v", created)
	}
	if created.NumGates <= 0 || created.DT <= 0 {
		t.Fatalf("implausible session metadata: %+v", created)
	}

	// A second open with the same (design, client) attaches.
	attached := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "alice", Bins: 120})
	if attached.Created || attached.SessionID != created.SessionID {
		t.Fatalf("expected attach to %s, got %+v", created.SessionID, attached)
	}
	// A different client gets its own session.
	other := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "bob", Bins: 120})
	if !other.Created || other.SessionID == created.SessionID {
		t.Fatalf("expected a distinct session for bob, got %+v", other)
	}

	base := ts.URL + "/v1/sessions/" + created.SessionID

	status, body := postJSON(t, base+"/analyze", &AnalyzeRequest{Percentiles: []float64{0.5, 0.99}})
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	var an AnalyzeResponse
	mustUnmarshal(t, body, &an)
	if an.Objective <= 0 || an.TotalWidth <= 0 || an.NumGates != created.NumGates {
		t.Fatalf("implausible analysis: %+v", an)
	}
	if len(an.Percentiles) != 2 || an.Percentiles["0.99"] < an.Percentiles["0.5"] {
		t.Fatalf("bad percentiles: %+v", an.Percentiles)
	}

	g, w := int64(0), 2.0
	status, body = postJSON(t, base+"/whatif", &WhatIfRequest{Gate: &g, Width: &w})
	if status != http.StatusOK {
		t.Fatalf("single what-if: %d %s", status, body)
	}
	var wi WhatIfResponse
	mustUnmarshal(t, body, &wi)
	if len(wi.Results) != 1 || wi.Results[0].Gate != 0 || wi.Results[0].Width != 2.0 {
		t.Fatalf("bad what-if result: %+v", wi)
	}

	cands := make([]CandidateWire, created.NumGates)
	for i := range cands {
		cands[i] = CandidateWire{Gate: int64(i), Width: 1.5}
	}
	status, body = postJSON(t, base+"/whatif", &WhatIfRequest{Candidates: cands})
	if status != http.StatusOK {
		t.Fatalf("batch what-if: %d %s", status, body)
	}
	mustUnmarshal(t, body, &wi)
	if len(wi.Results) != created.NumGates {
		t.Fatalf("batch returned %d results, want %d", len(wi.Results), created.NumGates)
	}

	status, body = postJSON(t, base+"/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", status, body)
	}
	var cp CheckpointResponse
	mustUnmarshal(t, body, &cp)
	if cp.Depth != 1 {
		t.Fatalf("checkpoint depth %d, want 1", cp.Depth)
	}

	status, body = postJSON(t, base+"/resize", &ResizeRequest{Gate: 0, Width: 2.5})
	if status != http.StatusOK {
		t.Fatalf("resize: %d %s", status, body)
	}
	var rz ResizeResponse
	mustUnmarshal(t, body, &rz)
	if rz.NewWidth != 2.5 || rz.NodesRecomputed <= 0 {
		t.Fatalf("bad resize stats: %+v", rz)
	}

	status, body = postJSON(t, base+"/rollback", nil)
	if status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, body)
	}
	mustUnmarshal(t, body, &cp)
	if cp.Depth != 0 {
		t.Fatalf("depth after rollback %d, want 0", cp.Depth)
	}
	// A second rollback has no checkpoint to pop: 409.
	status, body = postJSON(t, base+"/rollback", nil)
	if status != http.StatusConflict || errorCode(t, body) != "no_checkpoint" {
		t.Fatalf("double rollback: %d %s", status, body)
	}

	// The rollback restored the pre-resize width: analyze agrees with the
	// original objective.
	status, body = postJSON(t, base+"/analyze", nil)
	if status != http.StatusOK {
		t.Fatalf("analyze after rollback: %d %s", status, body)
	}
	var an2 AnalyzeResponse
	mustUnmarshal(t, body, &an2)
	if an2.TotalWidth != an.TotalWidth {
		t.Fatalf("rollback did not restore width: %v vs %v", an2.TotalWidth, an.TotalWidth)
	}

	status, body = getJSON(t, base)
	if status != http.StatusOK {
		t.Fatalf("session info: %d %s", status, body)
	}
	var info SessionInfoResponse
	mustUnmarshal(t, body, &info)
	if info.SessionID != created.SessionID || info.Client != "alice" || info.InFlight != 0 {
		t.Fatalf("bad session info: %+v", info)
	}

	req, err := http.NewRequest(http.MethodDelete, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	status, body = postJSON(t, base+"/analyze", nil)
	if status != http.StatusNotFound {
		t.Fatalf("analyze after delete: %d %s", status, body)
	}
}

// TestOpenValidation pins the 4xx mapping of bad open requests.
func TestOpenValidation(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"missing design", &OpenSessionRequest{}, 400, "missing_field"},
		{"unknown benchmark", &OpenSessionRequest{Design: "c9999"}, 400, "bad_design"},
		{"bad objective", &OpenSessionRequest{Design: "c17", Objective: "median"}, 400, "bad_objective"},
		{"objective out of range", &OpenSessionRequest{Design: "c17", Objective: "p250"}, 400, "bad_objective"},
		{"negative bins", []byte(`{"design":"c17","bins":-3}`), 400, "bad_bins"},
		{"bins over cap", []byte(`{"design":"c17","bins":70000}`), 400, "bad_bins"},
		{"long name", &OpenSessionRequest{Design: strings.Repeat("x", 300)}, 400, "bad_name"},
		{"malformed json", []byte(`{"design":`), 400, "bad_json"},
		{"trailing data", []byte(`{"design":"c17"} extra`), 400, "bad_json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/sessions", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, body)
			}
			if code := errorCode(t, body); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// TestOpenBinsEdgeValues pins the daemon's handling of bins values that
// pass validation: every in-range budget — including the degenerate
// 1-bin grid — must open a working session, never escalate to a
// 500-via-recover from a panic deeper in the engine.
func TestOpenBinsEdgeValues(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	for _, bins := range []int{1, 16, 1 << 16} {
		req := &OpenSessionRequest{Design: "c17", Client: fmt.Sprintf("bins-%d", bins), Bins: bins}
		status, body := postJSON(t, ts.URL+"/v1/sessions", req)
		if status != http.StatusCreated {
			t.Fatalf("bins=%d: status %d, want 201 (%s)", bins, status, body)
		}
		var sess OpenSessionResponse
		if err := json.Unmarshal(body, &sess); err != nil {
			t.Fatalf("bins=%d: %v", bins, err)
		}
		status, body = postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/analyze", &AnalyzeRequest{})
		if status != http.StatusOK {
			t.Fatalf("bins=%d: analyze status %d, want 200 (%s)", bins, status, body)
		}
	}
}

// TestRequestValidation pins the 4xx mapping of bad per-session bodies.
func TestRequestValidation(t *testing.T) {
	_, ts := newHTTP(t, Config{MaxBodyBytes: 4096})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Bins: 120})
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	tooMany := make([]CandidateWire, MaxCandidates+1)
	g, w := int64(0), 2.0
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		code   string
	}{
		{"whatif empty", "/whatif", nil, 400, "missing_field"},
		{"whatif ambiguous", "/whatif", &WhatIfRequest{Gate: &g, Width: &w, Candidates: []CandidateWire{{}}}, 400, "ambiguous_whatif"},
		{"whatif half single", "/whatif", []byte(`{"gate":0}`), 400, "missing_field"},
		{"whatif negative gate", "/whatif", &WhatIfRequest{Candidates: []CandidateWire{{Gate: -1, Width: 2}}}, 400, "bad_gate"},
		{"whatif too many", "/whatif", &WhatIfRequest{Candidates: tooMany}, 413, "body_too_large"},
		{"whatif bad gate id", "/whatif", &WhatIfRequest{Candidates: []CandidateWire{{Gate: 1 << 40, Width: 2}}}, 400, "bad_gate"},
		{"whatif out of range gate", "/whatif", &WhatIfRequest{Candidates: []CandidateWire{{Gate: 99999, Width: 2}}}, 400, "request_failed"},
		{"resize bad gate", "/resize", &ResizeRequest{Gate: -1, Width: 2}, 400, "bad_gate"},
		{"analyze bad percentile", "/analyze", &AnalyzeRequest{Percentiles: []float64{1.5}}, 400, "bad_percentile"},
		{"optimize missing name", "/optimize", &OptimizeRequest{}, 400, "missing_field"},
		{"optimize unknown name", "/optimize", &OptimizeRequest{Optimizer: "annealer"}, 400, "unknown_optimizer"},
		{"optimize bad multi", "/optimize", []byte(`{"optimizer":"deterministic","multi_size":-1}`), 400, "bad_multi_size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, base+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, body)
			}
			if code := errorCode(t, body); code != tc.code {
				t.Fatalf("code %q, want %q (%s)", code, tc.code, body)
			}
		})
	}

	// An unknown session id is a 404, whatever the body.
	status, body := postJSON(t, ts.URL+"/v1/sessions/nope/analyze", nil)
	if status != http.StatusNotFound || errorCode(t, body) != "no_session" {
		t.Fatalf("unknown id: %d %s", status, body)
	}
}

// TestBodySizeCap pins the 413 for oversized bodies.
func TestBodySizeCap(t *testing.T) {
	_, ts := newHTTP(t, Config{MaxBodyBytes: 512})
	huge := []byte(`{"design":"` + strings.Repeat("a", 2048) + `"}`)
	status, body := postJSON(t, ts.URL+"/v1/sessions", huge)
	if status != http.StatusRequestEntityTooLarge || errorCode(t, body) != "body_too_large" {
		t.Fatalf("oversized body: %d %s", status, body)
	}
}

// TestInlineBenchUpload loads a netlist from the request body instead
// of the benchmark table.
func TestInlineBenchUpload(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	bench := `# tiny
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
`
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "tiny", Client: "up", Bench: bench, Bins: 120})
	if sess.NumGates != 1 {
		t.Fatalf("uploaded netlist has %d gates, want 1", sess.NumGates)
	}
	status, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/analyze", nil)
	if status != http.StatusOK {
		t.Fatalf("analyze uploaded design: %d %s", status, body)
	}
}

// TestIdleEviction pins the idle budget: an unleased session past the
// timeout is reclaimed by Sweep, observable in /stats, and its handle
// turns 404.
func TestIdleEviction(t *testing.T) {
	s, ts := newHTTP(t, Config{
		IdleTimeout: 30 * time.Millisecond,
		SweepEvery:  time.Hour, // manual sweeps only
	})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "idle", Bins: 120})

	if n := s.Manager().Sweep(); n != 0 {
		t.Fatalf("fresh session swept: %d", n)
	}
	time.Sleep(60 * time.Millisecond)
	if n := s.Manager().Sweep(); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}

	status, body := getJSON(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	var st StatsResponse
	mustUnmarshal(t, body, &st)
	if st.Sessions.EvictedIdle != 1 || st.Sessions.Live != 0 {
		t.Fatalf("stats after idle eviction: %+v", st.Sessions)
	}
	if st.Engine.SessionsOpened < 1 || st.Engine.SessionsLive != 0 {
		t.Fatalf("engine rollup after eviction: %+v", st.Engine)
	}

	status, body = postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/analyze", nil)
	if status != http.StatusNotFound {
		t.Fatalf("evicted session: %d %s", status, body)
	}
}

// TestCapEviction pins the live-session cap: opening past MaxSessions
// evicts the least-recently-used unleased session.
func TestCapEviction(t *testing.T) {
	s, ts := newHTTP(t, Config{MaxSessions: 2, SweepEvery: time.Hour})
	first := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "a", Bins: 120})
	second := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "b", Bins: 120})
	// Touch the first so the second is LRU.
	if status, body := postJSON(t, ts.URL+"/v1/sessions/"+first.SessionID+"/analyze", nil); status != http.StatusOK {
		t.Fatalf("touch: %d %s", status, body)
	}
	third := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "c", Bins: 120})
	if !third.Created {
		t.Fatalf("third open did not create: %+v", third)
	}
	st := s.Manager().Stats()
	if st.Live != 2 || st.EvictedCap != 1 {
		t.Fatalf("stats after cap eviction: %+v", st)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/sessions/"+second.SessionID); status != http.StatusNotFound {
		t.Fatalf("LRU session survived the cap: %d", status)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/sessions/"+first.SessionID); status != http.StatusOK {
		t.Fatalf("recently-used session evicted: %d", status)
	}
}

// TestPoolFullWhenAllLeased pins the 503: with every session leased,
// nothing is evictable and opens must fail rather than block.
func TestPoolFullWhenAllLeased(t *testing.T) {
	s := newDaemon(t, Config{MaxSessions: 1, SweepEvery: time.Hour})
	m := s.Manager()
	ctx := context.Background()

	holder, err := m.OpenOrAttach(ctx, &OpenSessionRequest{Design: "c17", Client: "holder", Bins: 120})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Do(holder.SessionID, func(*Lease) error {
		_, err := m.OpenOrAttach(ctx, &OpenSessionRequest{Design: "c17", Client: "other", Bins: 120})
		if !errors.Is(err, ErrPoolFull) {
			t.Errorf("open with a fully-leased pool: %v, want ErrPoolFull", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenOrAttach(ctx, &OpenSessionRequest{Design: "c17", Client: "other", Bins: 120}); err != nil {
		t.Fatalf("open after release should evict the idle holder: %v", err)
	}
	if st := m.Stats(); st.EvictedCap != 1 || st.Live != 1 {
		t.Fatalf("stats after cap turnover: %+v", st)
	}
}

// TestDeleteWhileLeased pins the doomed-entry contract: DELETE during
// an in-flight lease removes the handle immediately but closes the
// session only on the final release.
func TestDeleteWhileLeased(t *testing.T) {
	s := newDaemon(t, Config{SweepEvery: time.Hour})
	m := s.Manager()
	ctx := context.Background()

	resp, err := m.OpenOrAttach(ctx, &OpenSessionRequest{Design: "c17", Client: "x", Bins: 120})
	if err != nil {
		t.Fatal(err)
	}
	var sess *statsize.Session
	err = m.Do(resp.SessionID, func(lease *Lease) error {
		if err := m.Close(resp.SessionID); err != nil {
			return err
		}
		if err := m.Do(resp.SessionID, func(*Lease) error { return nil }); !errors.Is(err, ErrNoSession) {
			t.Errorf("Do after delete: %v, want ErrNoSession", err)
		}
		// The lease still works: the session must not close under it.
		sess = lease.Session()
		if _, err := sess.WhatIfBatch(ctx, []statsize.Candidate{{Gate: 0, Width: 1.5}}); err != nil {
			t.Errorf("what-if on doomed-but-leased session: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Now it is closed.
	if _, err := sess.TotalWidth(); err != statsize.ErrSessionClosed {
		t.Fatalf("session after final release: %v, want ErrSessionClosed", err)
	}
}

// TestManagerDoReleasesOnEveryExit pins the scoped lease: whether f
// returns normally, returns an error or panics, Do leaves no lease in
// flight, and an id the pool does not hold is refused without calling
// f.
func TestManagerDoReleasesOnEveryExit(t *testing.T) {
	s := newDaemon(t, Config{SweepEvery: time.Hour})
	m := s.Manager()
	ctx := context.Background()

	resp, err := m.OpenOrAttach(ctx, &OpenSessionRequest{Design: "c17", Client: "x", Bins: 120})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID
	inFlight := func() (pool, entry int) {
		info, err := m.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		return m.Stats().InFlight, info.InFlight
	}
	boom := errors.New("boom")
	exits := []struct {
		name string
		f    func(*Lease) error
		want error
	}{
		{"return", func(*Lease) error { return nil }, nil},
		{"error", func(*Lease) error { return boom }, boom},
		{"panic", func(*Lease) error { panic(boom) }, boom},
	}
	for _, e := range exits {
		var got error
		func() {
			defer func() {
				if r := recover(); r != nil {
					got = r.(error)
				}
			}()
			got = m.Do(id, func(l *Lease) error {
				if pool, entry := inFlight(); pool != 1 || entry != 1 {
					t.Errorf("%s exit: in flight inside Do = %d pool, %d entry; want 1, 1", e.name, pool, entry)
				}
				return e.f(l)
			})
		}()
		if got != e.want {
			t.Errorf("%s exit: Do gave %v, want %v", e.name, got, e.want)
		}
		if pool, entry := inFlight(); pool != 0 || entry != 0 {
			t.Errorf("%s exit left %d pool, %d entry leases in flight", e.name, pool, entry)
		}
	}

	if err := m.Close(id); err != nil {
		t.Fatal(err)
	}
	for _, missing := range []string{"s999999-nope", id} {
		called := false
		if err := m.Do(missing, func(*Lease) error { called = true; return nil }); !errors.Is(err, ErrNoSession) || called {
			t.Errorf("Do(%q): err %v, f called %v; want ErrNoSession without f", missing, err, called)
		}
	}
}

// TestHealthz pins both health states: ok while serving, draining (503)
// once shutdown has begun.
func TestHealthz(t *testing.T) {
	eng, err := statsize.New()
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{Logf: noLog})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while serving: %d", rec.Code)
	}
	var h HealthResponse
	mustUnmarshal(t, rec.Body.Bytes(), &h)
	if h.Status != "ok" || h.GoDesign != "statsized" {
		t.Fatalf("healthz body: %+v", h)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", rec.Code)
	}
	mustUnmarshal(t, rec.Body.Bytes(), &h)
	if h.Status != "draining" {
		t.Fatalf("healthz body while draining: %+v", h)
	}
}

// TestRecoverMiddleware pins the panic fence: a handler panic becomes a
// 500 envelope, not a dead connection; the net/http abort sentinel
// passes through.
func TestRecoverMiddleware(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status %d, want 500", rec.Code)
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "internal_panic" {
		t.Fatalf("panic code %q", code)
	}

	abort := recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler swallowed by the middleware")
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestValidateWhatIfCap pins the candidate-count cap (hit below the
// HTTP body cap so the size fence has two layers).
func TestValidateWhatIfCap(t *testing.T) {
	req := &WhatIfRequest{Candidates: make([]CandidateWire, MaxCandidates+1)}
	for i := range req.Candidates {
		req.Candidates[i] = CandidateWire{Gate: int64(i), Width: 1}
	}
	if _, err := validateWhatIf(req); err == nil || err.Code != "too_many_candidates" {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestParseObjective pins the wire objective grammar.
func TestParseObjective(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ok   bool
		name string
	}{
		{"", true, ""},
		{"mean", true, "mean"},
		{"p99", true, "p99"},
		{"p99.9", true, "p99.9"},
		{"p0", false, ""},
		{"p100", false, ""},
		{"median", false, ""},
		{"p", false, ""},
		{"pNaN", false, ""},
	} {
		obj, err := parseObjective(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseObjective(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && tc.in != "" && obj == nil {
			t.Errorf("parseObjective(%q) returned nil objective", tc.in)
		}
	}
}

// TestSanitizeID pins the session id suffix rules.
func TestSanitizeID(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"c1908", "c1908"},
		{"My Design!", "my-design-"},
		{"", "design"},
		{strings.Repeat("a", 100), strings.Repeat("a", 24)},
	} {
		if got := sanitizeID(tc.in); got != tc.want {
			t.Errorf("sanitizeID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestStatsEndpoint pins the /stats shape: the engine rollup and the
// pool accounting move when traffic flows.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "stats", Bins: 120})
	base := ts.URL + "/v1/sessions/" + sess.SessionID
	g, w := int64(0), 2.0
	for i := 0; i < 3; i++ {
		if status, body := postJSON(t, base+"/whatif", &WhatIfRequest{Gate: &g, Width: &w}); status != http.StatusOK {
			t.Fatalf("whatif %d: %d %s", i, status, body)
		}
	}
	status, body := getJSON(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	var st StatsResponse
	mustUnmarshal(t, body, &st)
	if st.Engine.WhatIfsServed < 3 {
		t.Fatalf("what-ifs served %d, want >= 3", st.Engine.WhatIfsServed)
	}
	if st.Sessions.Live != 1 || st.Sessions.Opened != 1 {
		t.Fatalf("pool stats: %+v", st.Sessions)
	}
	if st.Engine.SessionsLive != 1 {
		t.Fatalf("engine live sessions %d, want 1", st.Engine.SessionsLive)
	}
}

// TestMethodNotAllowed pins the mux's method discipline.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	status, _ := getJSON(t, ts.URL+"/v1/sessions")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sessions: %d, want 405", status)
	}
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: %d, want 405", resp.StatusCode)
	}
}
