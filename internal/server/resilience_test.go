package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// doReq issues one request with custom headers and returns the status,
// body, and Retry-After header.
func doReq(t testing.TB, method, url string, headers map[string]string, body []byte) (int, []byte, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header.Get("Retry-After")
}

// TestAdmissionRejectionCodes unit-tests the load shedder's four
// rejection causes: each produces its distinct code, status, and —
// where the client can act on it — a Retry-After hint.
func TestAdmissionRejectionCodes(t *testing.T) {
	cfg := Config{HeavySlots: 1, HeavyQueue: 1, QueueWait: 5 * time.Millisecond,
		DrainTimeout: 3 * time.Second}.normalize()
	adm := newAdmission(cfg, func() bool { return false })
	ctx := context.Background()

	tk, aerr := adm.acquire(ctx, classHeavy)
	if aerr != nil {
		t.Fatalf("first acquire rejected: %+v", aerr)
	}

	// Slot held: the next acquire queues, exhausts the 5ms wait, sheds.
	_, aerr = adm.acquire(ctx, classHeavy)
	if aerr == nil || aerr.Status != http.StatusTooManyRequests || aerr.Code != CodeShed {
		t.Fatalf("queue-wait shed: %+v, want 429 %s", aerr, CodeShed)
	}
	if aerr.RetryAfterS < 1 {
		t.Fatalf("shed without Retry-After hint: %+v", aerr)
	}

	// An already-expired request deadline surfaces as such, not as shed.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, aerr = adm.acquire(expired, classHeavy)
	if aerr == nil || aerr.Status != http.StatusGatewayTimeout || aerr.Code != CodeDeadlineExpired {
		t.Fatalf("deadline while queued: %+v, want 504 %s", aerr, CodeDeadlineExpired)
	}

	// A canceled client is 499: not a server error, not overload.
	canceled, cancel2 := context.WithCancel(ctx)
	cancel2()
	_, aerr = adm.acquire(canceled, classHeavy)
	if aerr == nil || aerr.Status != statusClientGone {
		t.Fatalf("canceled while queued: %+v, want %d", aerr, statusClientGone)
	}

	// Release is idempotent and actually frees the slot.
	tk.release()
	tk.release()
	tk2, aerr := adm.acquire(ctx, classHeavy)
	if aerr != nil {
		t.Fatalf("acquire after release: %+v", aerr)
	}
	tk2.release()

	// Draining sheds everything with its own code and the drain hint.
	draining := newAdmission(cfg, func() bool { return true })
	_, aerr = draining.acquire(ctx, classHeavy)
	if aerr == nil || aerr.Status != http.StatusServiceUnavailable || aerr.Code != CodeDraining {
		t.Fatalf("draining acquire: %+v, want 503 %s", aerr, CodeDraining)
	}
	if aerr.RetryAfterS != 3 {
		t.Fatalf("draining Retry-After %d, want the 3s drain hint", aerr.RetryAfterS)
	}
}

// TestAdmissionQueueOverflowShedsImmediately pins the bounded-queue
// contract: with the queue full, overflow is rejected without waiting.
func TestAdmissionQueueOverflowShedsImmediately(t *testing.T) {
	cfg := Config{HeavySlots: 1, HeavyQueue: 1, QueueWait: time.Hour}.normalize()
	adm := newAdmission(cfg, func() bool { return false })

	tk, aerr := adm.acquire(context.Background(), classHeavy)
	if aerr != nil {
		t.Fatalf("first acquire: %+v", aerr)
	}
	defer tk.release()

	// Park one waiter in the queue (it owns the single queue slot).
	waiterCtx, stopWaiter := context.WithCancel(context.Background())
	defer stopWaiter()
	parked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(parked)
		tw, _ := adm.acquire(waiterCtx, classHeavy)
		tw.release()
	}()
	<-parked
	// Wait for the goroutine to be counted in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for adm.classes[classHeavy].queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, aerr = adm.acquire(context.Background(), classHeavy)
	if aerr == nil || aerr.Code != CodeShed {
		t.Fatalf("overflow acquire: %+v, want %s", aerr, CodeShed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("overflow shed took %v; must not wait in a full queue", d)
	}
	stopWaiter()
	<-done
}

// TestOverloadShedsOverHTTP drives a shed through the HTTP handlers:
// with the one query slot held and the one queue place taken by a
// parked what-if, the next what-if is refused at once with 429 shed and
// a Retry-After header equal to the body's hint. Once the slot frees,
// the parked request is served, and /healthz and /stats account for
// exactly that traffic.
func TestOverloadShedsOverHTTP(t *testing.T) {
	s, ts := newHTTP(t, Config{QuerySlots: 1, QueryQueue: 1, QueueWait: time.Hour})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "overload", Bins: 120})
	url := ts.URL + "/v1/sessions/" + sess.SessionID + "/whatif"
	g, w := int64(0), 2.0
	body, _ := json.Marshal(&WhatIfRequest{Gate: &g, Width: &w})

	tk, aerr := s.adm.acquire(context.Background(), classQuery)
	if aerr != nil {
		t.Fatalf("hold the query slot: %+v", aerr)
	}
	defer tk.release() // a failed check must not leave the parked request waiting an hour

	parked := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.classes[classQuery].queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("what-if never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The deadline turns a request that queues instead of shedding into
	// a fast 504 rather than an hour's wait.
	start := time.Now()
	status, out, retryAfter := doReq(t, "POST", url, map[string]string{"X-Deadline-Ms": "5000"}, body)
	if status != http.StatusTooManyRequests || errorCode(t, out) != CodeShed {
		t.Fatalf("overflow what-if: %d %s, want 429 %s", status, out, CodeShed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v; a full queue must refuse at once", d)
	}
	var env errorEnvelope
	mustUnmarshal(t, out, &env)
	if ra, err := strconv.Atoi(retryAfter); err != nil || ra < 1 || ra != env.Error.RetryAfterS {
		t.Fatalf("Retry-After %q and retry_after_s %d: want equal and >= 1", retryAfter, env.Error.RetryAfterS)
	}

	tk.release()
	if got := <-parked; got != http.StatusOK {
		t.Fatalf("parked what-if: status %d, want 200", got)
	}
	if status, out := postJSON(t, url, body); status != http.StatusOK {
		t.Fatalf("what-if after release: %d %s", status, out)
	}

	_, out = getJSON(t, ts.URL+"/healthz")
	var h HealthResponse
	mustUnmarshal(t, out, &h)
	if q := h.Admission.Classes["query"]; q.Admitted != 3 || q.Shed != 1 {
		t.Fatalf("query class %+v, want admitted 3 and shed 1", q)
	}
	_, out = getJSON(t, ts.URL+"/stats")
	var st StatsResponse
	mustUnmarshal(t, out, &st)
	if st.Engine.WhatIfsServed != 2 {
		t.Fatalf("whatifs_served %d, want 2", st.Engine.WhatIfsServed)
	}
}

// TestRunRegistryConflict pins one-run-per-session: a live run blocks a
// second with 409 run_active carrying the live run's id, and a finished
// run is displaced.
func TestRunRegistryConflict(t *testing.T) {
	rg := newRunRegistry()
	a := &optRun{sessionID: "s1", updated: make(chan struct{})}
	if aerr := rg.insert(a); aerr != nil {
		t.Fatalf("insert a: %+v", aerr)
	}
	b := &optRun{sessionID: "s1", updated: make(chan struct{})}
	aerr := rg.insert(b)
	if aerr == nil || aerr.Status != http.StatusConflict || aerr.Code != CodeRunActive {
		t.Fatalf("conflicting insert: %+v, want 409 %s", aerr, CodeRunActive)
	}
	if aerr.RunID != a.id {
		t.Fatalf("conflict names run %q, want the live run %q", aerr.RunID, a.id)
	}
	a.finish(marshalEvent("done", -1, &DoneEvent{}))
	if aerr := rg.insert(b); aerr != nil {
		t.Fatalf("insert over finished run: %+v", aerr)
	}
	if _, aerr := rg.find("s1", b.id); aerr != nil {
		t.Fatalf("find displacing run: %+v", aerr)
	}
	if _, aerr := rg.find("s1", a.id); aerr == nil {
		t.Fatal("displaced run still findable")
	}
}

// TestDeadlineHeaderRejections pins the before-any-work contract: an
// expired or malformed X-Deadline-Ms never reaches a handler.
func TestDeadlineHeaderRejections(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	url := ts.URL + "/v1/sessions"
	body, _ := json.Marshal(&OpenSessionRequest{Design: "c17", Bins: 120})

	status, out, _ := doReq(t, "POST", url, map[string]string{HeaderDeadlineMs: "0"}, body)
	if status != http.StatusRequestTimeout || errorCode(t, out) != CodeDeadlineExpired {
		t.Fatalf("expired-on-arrival: %d %s", status, out)
	}
	status, out, _ = doReq(t, "POST", url, map[string]string{HeaderDeadlineMs: "-10"}, body)
	if status != http.StatusRequestTimeout || errorCode(t, out) != CodeDeadlineExpired {
		t.Fatalf("negative deadline: %d %s", status, out)
	}
	status, out, _ = doReq(t, "POST", url, map[string]string{HeaderDeadlineMs: "soon"}, body)
	if status != http.StatusBadRequest || errorCode(t, out) != "bad_deadline" {
		t.Fatalf("malformed deadline: %d %s", status, out)
	}
	// A generous deadline sails through.
	status, _, _ = doReq(t, "POST", url, map[string]string{HeaderDeadlineMs: "60000"}, body)
	if status != http.StatusCreated {
		t.Fatalf("valid deadline rejected: %d", status)
	}
}

// TestPoolFullCarriesRetryAfter pins satellite 1's 503 shape: a
// fully-leased pool rejects opens with code pool_full and a concrete
// Retry-After header.
func TestPoolFullCarriesRetryAfter(t *testing.T) {
	s, ts := newHTTP(t, Config{MaxSessions: 1, SweepEvery: time.Hour})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "holder", Bins: 120})

	err := s.Manager().Do(sess.SessionID, func(*Lease) error {
		body, _ := json.Marshal(&OpenSessionRequest{Design: "c17", Client: "other", Bins: 120})
		status, out, retryAfter := doReq(t, "POST", ts.URL+"/v1/sessions", nil, body)
		if status != http.StatusServiceUnavailable || errorCode(t, out) != CodePoolFull {
			t.Fatalf("pool-full open: %d %s, want 503 %s", status, out, CodePoolFull)
		}
		if n, err := strconv.Atoi(retryAfter); err != nil || n < 1 {
			t.Fatalf("pool-full Retry-After %q, want a positive integer", retryAfter)
		}
		var env errorEnvelope
		mustUnmarshal(t, out, &env)
		if env.Error.RetryAfterS < 1 {
			t.Fatalf("pool-full body retry_after_s %d, want >= 1", env.Error.RetryAfterS)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHealthzReportsAdmission pins satellite 2: /healthz exposes the
// overload state — per-class slots, inflight, queue depth — and flips
// to draining 503 once shutdown begins.
func TestHealthzReportsAdmission(t *testing.T) {
	s, ts := newHTTP(t, Config{QuerySlots: 7, HeavySlots: 3})

	tk, aerr := s.adm.acquire(context.Background(), classHeavy)
	if aerr != nil {
		t.Fatalf("acquire: %+v", aerr)
	}

	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h HealthResponse
	mustUnmarshal(t, body, &h)
	if h.Admission == nil || !h.Admission.Enabled {
		t.Fatalf("healthz admission missing or disabled: %s", body)
	}
	q, ok := h.Admission.Classes["query"]
	if !ok || q.Slots != 7 {
		t.Fatalf("query class health %+v (ok=%v), want slots 7", q, ok)
	}
	hv, ok := h.Admission.Classes["heavy"]
	if !ok || hv.Slots != 3 || hv.InFlight != 1 || hv.Admitted != 1 {
		t.Fatalf("heavy class health %+v, want slots 3 inflight 1 admitted 1", hv)
	}
	tk.release()

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	status, body = getJSON(t, ts.URL+"/healthz")
	var h2 HealthResponse
	mustUnmarshal(t, body, &h2)
	if status != http.StatusServiceUnavailable || h2.Status != "draining" {
		t.Fatalf("post-shutdown healthz: %d %s", status, body)
	}
	// Work routes shed with the draining code, not a hang or a 500.
	body2, _ := json.Marshal(&OpenSessionRequest{Design: "c17", Bins: 120})
	status, out, _ := doReq(t, "POST", ts.URL+"/v1/sessions", nil, body2)
	if status != http.StatusServiceUnavailable || errorCode(t, out) != CodeDraining {
		t.Fatalf("draining open: %d %s, want 503 %s", status, out, CodeDraining)
	}
}

// TestAdmissionDisabled pins the escape hatch: with DisableAdmission
// every route admits unconditionally and /healthz says so.
func TestAdmissionDisabled(t *testing.T) {
	_, ts := newHTTP(t, Config{DisableAdmission: true})
	openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Bins: 120})
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h HealthResponse
	mustUnmarshal(t, body, &h)
	if h.Admission == nil || h.Admission.Enabled {
		t.Fatalf("healthz with admission disabled: %s", body)
	}
}

// optimizeStream POSTs an optimize request with headers and parses the
// full SSE body.
func optimizeStream(t testing.TB, url string, headers map[string]string, req *OptimizeRequest) (int, []sseEvent, []byte) {
	t.Helper()
	var body []byte
	if req != nil {
		body, _ = json.Marshal(req)
	}
	status, out, _ := doReq(t, "POST", url, headers, body)
	if status != http.StatusOK {
		return status, nil, out
	}
	return status, collectSSE(t, out), out
}

// TestOptimizeRunResume pins the reconnect contract end to end: a run's
// stream can be re-fetched with X-Run-Id + Last-Event-ID and the replay
// carries exactly the iterations after the one named, then done —
// byte-identical to the frames the first stream carried.
func TestOptimizeRunResume(t *testing.T) {
	_, ts := newHTTP(t, Config{RunLinger: 2 * time.Second})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "resume", Bins: 120})
	url := ts.URL + "/v1/sessions/" + sess.SessionID + "/optimize"

	status, events, raw := optimizeStream(t, url, nil, &OptimizeRequest{Optimizer: "accelerated", MaxIterations: 6})
	if status != http.StatusOK {
		t.Fatalf("optimize: %d %s", status, raw)
	}
	if len(events) < 3 || events[0].name != "start" || events[len(events)-1].name != "done" {
		t.Fatalf("stream shape: %d events", len(events))
	}
	var start StartEvent
	mustUnmarshal(t, []byte(events[0].data), &start)
	if start.RunID == "" {
		t.Fatalf("start event missing run_id: %s", events[0].data)
	}
	iters := events[1 : len(events)-1]
	if len(iters) < 2 {
		t.Fatalf("run made %d iterations; need >= 2 to test resume", len(iters))
	}

	// Resume after the first iteration: the replay must be the remaining
	// iter frames plus done, bit-identical, with no duplicate start.
	lastSeen := iters[0].id
	status, replay, raw := optimizeStream(t, url, map[string]string{
		HeaderRunID:       start.RunID,
		HeaderLastEventID: lastSeen,
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("resume: %d %s", status, raw)
	}
	want := append(append([]sseEvent{}, iters[1:]...), events[len(events)-1])
	if len(replay) != len(want) {
		t.Fatalf("resume replayed %d events, want %d", len(replay), len(want))
	}
	for i := range want {
		if replay[i].name != want[i].name || replay[i].id != want[i].id ||
			!bytes.Equal(replay[i].data, want[i].data) {
			t.Fatalf("resume event %d: got %+v want %+v", i, replay[i], want[i])
		}
	}

	// An unknown run id is a clean 404.
	status, _, raw = optimizeStream(t, url, map[string]string{HeaderRunID: "r999999"}, nil)
	if status != http.StatusNotFound || errorCode(t, raw) != "no_run" {
		t.Fatalf("unknown run: %d %s", status, raw)
	}
	// A garbage Last-Event-ID is a clean 400.
	status, _, raw = optimizeStream(t, url, map[string]string{
		HeaderRunID: start.RunID, HeaderLastEventID: "x"}, nil)
	if status != http.StatusBadRequest || errorCode(t, raw) != "bad_last_event_id" {
		t.Fatalf("bad last-event-id: %d %s", status, raw)
	}
}

// TestRunResumeHistoryGap pins the bounded-history contract on the run
// itself: with the retention window smaller than the run, resuming from
// before the window — or asking for a full replay once early
// iterations are trimmed — is a 410 history_gap, not silent data loss.
func TestRunResumeHistoryGap(t *testing.T) {
	rn := &optRun{history: 2, maxDropped: -1, updated: make(chan struct{})}
	rn.start = marshalEvent("start", -1, &StartEvent{RunID: "r000001"})
	for i := 0; i < 6; i++ {
		rn.record(marshalEvent("iter", i, map[string]int{"i": i}))
	}
	rn.finish(marshalEvent("done", -1, &DoneEvent{Iterations: 6}))
	// Ids 0..3 were trimmed; 4 and 5 remain.

	for _, lastIter := range []int{-1, 0, 2} {
		if _, aerr := rn.resume(lastIter); aerr == nil || aerr.Status != http.StatusGone || aerr.Code != "history_gap" {
			t.Fatalf("resume(%d) past a trimmed window: %+v, want 410 history_gap", lastIter, aerr)
		}
	}

	// The window boundary itself resumes: the client saw iteration 3,
	// and 4 onward are retained.
	cur, aerr := rn.resume(3)
	if aerr != nil {
		t.Fatalf("resume(3): %+v", aerr)
	}
	evs, _, gap := rn.collect(cur)
	if gap || len(evs) != 3 || evs[0].id != 4 || evs[1].id != 5 || evs[2].name != "done" {
		t.Fatalf("boundary resume collected %+v (gap=%v), want iters 4,5 then done", evs, gap)
	}

	// A tail resume replays only the terminal done event.
	cur, aerr = rn.resume(5)
	if aerr != nil {
		t.Fatalf("resume(5): %+v", aerr)
	}
	evs, _, gap = rn.collect(cur)
	if gap || len(evs) != 1 || evs[0].name != "done" {
		t.Fatalf("tail resume collected %+v (gap=%v), want just done", evs, gap)
	}

	// An untrimmed run replays in full on resume(-1), start included.
	fresh := &optRun{history: 16, maxDropped: -1, updated: make(chan struct{})}
	fresh.start = marshalEvent("start", -1, &StartEvent{RunID: "r000002"})
	fresh.record(marshalEvent("iter", 0, map[string]int{"i": 0}))
	fresh.finish(marshalEvent("done", -1, &DoneEvent{Iterations: 1}))
	cur, aerr = fresh.resume(-1)
	if aerr != nil {
		t.Fatalf("full replay resume: %+v", aerr)
	}
	evs, _, gap = fresh.collect(cur)
	if gap || len(evs) != 3 || evs[0].name != "start" || evs[2].name != "done" {
		t.Fatalf("full replay collected %+v (gap=%v), want start, iter, done", evs, gap)
	}
}

// TestOptimizeRunExpiresAfterLinger pins the history lifetime: a
// finished run stays attachable for the linger window, then its slot is
// reclaimed and reattachment is a 404.
func TestOptimizeRunExpiresAfterLinger(t *testing.T) {
	_, ts := newHTTP(t, Config{RunLinger: 50 * time.Millisecond})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "linger", Bins: 120})
	url := ts.URL + "/v1/sessions/" + sess.SessionID + "/optimize"

	status, events, raw := optimizeStream(t, url, nil, &OptimizeRequest{Optimizer: "accelerated", MaxIterations: 2})
	if status != http.StatusOK {
		t.Fatalf("optimize: %d %s", status, raw)
	}
	var start StartEvent
	mustUnmarshal(t, []byte(events[0].data), &start)

	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, _ = optimizeStream(t, url, map[string]string{HeaderRunID: start.RunID}, nil)
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still attachable long past linger: %d", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDeadlineMidResizeRollsBack is satellite 3: a request deadline
// firing mid-resize must unwind all-or-nothing — the session's timing
// state is exactly what it was — and the session must remain leasable
// and sweep-reclaimable afterwards.
func TestDeadlineMidResizeRollsBack(t *testing.T) {
	s, ts := newHTTP(t, Config{IdleTimeout: time.Nanosecond, SweepEvery: time.Hour})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c6288", Client: "dl", Bins: 2000})
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	status, out := postJSON(t, base+"/analyze", &AnalyzeRequest{})
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, out)
	}
	var before AnalyzeResponse
	mustUnmarshal(t, out, &before)

	// Resize cost is proportional to the resized gate's downstream cone,
	// so probe a spread of gates (restoring each) and keep the most
	// expensive one — that is the resize a 1ms budget races against.
	bigGate, bigNodes := int64(-1), 0
	var bigElapsed time.Duration
	for i := 0; i < 25; i++ {
		g := int64(i) * int64(before.NumGates) / 25
		st, out := postJSON(t, base+"/resize", &ResizeRequest{Gate: g, Width: 3.0})
		if st != http.StatusOK {
			t.Fatalf("probe resize gate %d: %d %s", g, st, out)
		}
		var rr ResizeResponse
		mustUnmarshal(t, out, &rr)
		probeStart := time.Now()
		if st, out = postJSON(t, base+"/resize", &ResizeRequest{Gate: g, Width: rr.OldWidth}); st != http.StatusOK {
			t.Fatalf("probe restore gate %d: %d %s", g, st, out)
		}
		if rr.NodesRecomputed > bigNodes {
			bigGate, bigNodes = g, rr.NodesRecomputed
			bigElapsed = time.Since(probeStart)
		}
	}
	if bigElapsed < 2*time.Millisecond {
		t.Skipf("largest resize cone (gate %d, %d nodes) completes in %v; cannot race a 1ms deadline on this host",
			bigGate, bigNodes, bigElapsed)
	}
	// Re-baseline after the probes (they restore widths, but take the
	// post-probe analysis as ground truth regardless).
	status, out = postJSON(t, base+"/analyze", &AnalyzeRequest{})
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, out)
	}
	mustUnmarshal(t, out, &before)

	// Hammer resizes of the expensive gate under a 1ms budget until one
	// expires mid-work.
	resize, _ := json.Marshal(&ResizeRequest{Gate: bigGate, Width: 3.0})
	sawTimeout := false
	for i := 0; i < 50 && !sawTimeout; i++ {
		status, out, _ := doReq(t, "POST", base+"/resize",
			map[string]string{HeaderDeadlineMs: "1"}, resize)
		switch status {
		case http.StatusGatewayTimeout:
			if errorCode(t, out) != CodeDeadlineExpired {
				t.Fatalf("timeout code %s", out)
			}
			sawTimeout = true
		case http.StatusOK:
			// Won the race; restore the width and try again.
			var rr ResizeResponse
			mustUnmarshal(t, out, &rr)
			if st, out := postJSON(t, base+"/resize", &ResizeRequest{Gate: bigGate, Width: rr.OldWidth}); st != http.StatusOK {
				t.Fatalf("restore: %d %s", st, out)
			}
		default:
			t.Fatalf("deadline resize: unexpected %d %s", status, out)
		}
	}
	if !sawTimeout {
		t.Skip("no 1ms resize ever timed out on this host")
	}

	// All-or-nothing: the objective and total width are bit-identical.
	status, out = postJSON(t, base+"/analyze", &AnalyzeRequest{})
	if status != http.StatusOK {
		t.Fatalf("analyze after timeout: %d %s", status, out)
	}
	var after AnalyzeResponse
	mustUnmarshal(t, out, &after)
	if after.Objective != before.Objective || after.TotalWidth != before.TotalWidth {
		t.Fatalf("state mutated across a rolled-back resize: before=%+v after=%+v", before, after)
	}

	// The session is unleased again and the sweeper can reclaim it.
	if n := s.Manager().Sweep(); n != 1 {
		t.Fatalf("sweep reclaimed %d sessions, want 1", n)
	}
	if st := s.Manager().Stats(); st.Live != 0 {
		t.Fatalf("live sessions after sweep: %+v", st)
	}
}

// TestDeadlineSweepRaceHammer drives resizes-under-deadline, what-ifs,
// and the janitor sweep concurrently against one pooled session. Run
// with -race; the assertion is the absence of data races, leaked
// leases, and post-close use.
func TestDeadlineSweepRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test; skipped with -short")
	}
	s, ts := newHTTP(t, Config{IdleTimeout: time.Nanosecond, SweepEvery: time.Hour})
	open := &OpenSessionRequest{Design: "c1908", Client: "hammer", Bins: 300}
	openSession(t, ts.URL, open)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Reopen in case the sweeper reclaimed the session.
				body, _ := json.Marshal(open)
				st, out, _ := doReq(t, "POST", ts.URL+"/v1/sessions", nil, body)
				if st != http.StatusOK && st != http.StatusCreated {
					t.Errorf("reopen: %d %s", st, out)
					return
				}
				var osr OpenSessionResponse
				if err := json.Unmarshal(out, &osr); err != nil {
					t.Error(err)
					return
				}
				base := ts.URL + "/v1/sessions/" + osr.SessionID
				rz, _ := json.Marshal(&ResizeRequest{Gate: int64(i % 100), Width: 1.5 + float64(w)})
				st, out, _ = doReq(t, "POST", base+"/resize",
					map[string]string{HeaderDeadlineMs: strconv.Itoa(1 + i%3)}, rz)
				switch st {
				case http.StatusOK, http.StatusGatewayTimeout, http.StatusNotFound:
					// NotFound: the sweeper won; the next loop reopens.
				default:
					t.Errorf("hammer resize: %d %s", st, out)
					return
				}
			}
		}(w)
	}
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Manager().Sweep()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	<-sweepDone

	// Whatever survived, the pool must balance: no leaked leases.
	st := s.Manager().Stats()
	if st.InFlight != 0 {
		t.Fatalf("leaked leases after hammer: %+v", st)
	}
}
