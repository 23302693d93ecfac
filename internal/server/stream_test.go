package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"statsize"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	id   string
	data []byte
}

// sseScanner incrementally parses an SSE stream.
type sseScanner struct {
	sc *bufio.Scanner
}

func newSSEScanner(r *bufio.Reader) *sseScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseScanner{sc: sc}
}

// next returns the next event, or ok=false at end of stream.
func (s *sseScanner) next() (sseEvent, bool) {
	var ev sseEvent
	seen := false
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if seen {
				return ev, true
			}
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
			seen = true
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
			seen = true
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
			seen = true
		}
	}
	return ev, false
}

// collectSSE parses a whole SSE body.
func collectSSE(t testing.TB, body []byte) []sseEvent {
	t.Helper()
	sc := newSSEScanner(bufio.NewReader(bytes.NewReader(body)))
	var out []sseEvent
	for {
		ev, ok := sc.next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestSSEWriterFraming pins the wire framing of the three event kinds.
func TestSSEWriterFraming(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := newSSEWriter(rec)
	sw.event("start", -1, []byte(`{"a":1}`))
	sw.event("iter", 3, []byte(`{"b":2}`))
	want := "event: start\ndata: {\"a\":1}\n\n" +
		"id: 3\nevent: iter\ndata: {\"b\":2}\n\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("framing mismatch:\n got %q\nwant %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
}

// TestOptimizeStreamReplaysGoldenTrace is the wire-format proof for the
// service layer: a streamed accelerated run on c432 (MaxIterations=10,
// Bins=400 — the golden-trace configuration) must reconstruct the
// committed golden trace bit-identically from its SSE events alone.
// JSON's shortest-round-trip float encoding makes every objective,
// sensitivity and width survive the network exactly.
func TestOptimizeStreamReplaysGoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full 10-iteration optimize on c432; skipped with -short")
	}
	_, ts := newHTTP(t, Config{})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c432", Client: "golden", Bins: 400})

	status, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/optimize",
		&OptimizeRequest{Optimizer: "accelerated", MaxIterations: 10})
	if status != http.StatusOK {
		t.Fatalf("optimize: %d %s", status, body)
	}
	events := collectSSE(t, body)
	if len(events) < 3 {
		t.Fatalf("stream carried %d events, want start+iters+done", len(events))
	}
	if events[0].name != "start" || events[len(events)-1].name != "done" {
		t.Fatalf("stream framing: first=%q last=%q", events[0].name, events[len(events)-1].name)
	}

	var start StartEvent
	mustUnmarshal(t, events[0].data, &start)
	var done DoneEvent
	mustUnmarshal(t, events[len(events)-1].data, &done)
	if done.Canceled || done.Error != "" {
		t.Fatalf("run did not complete cleanly: %+v", done)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# golden optimizer trace: %s %s (MaxIterations=10 Bins=400)\n", "c432", "accelerated")
	fmt.Fprintf(&b, "initial %x %x\n", start.InitialObjective, start.InitialWidth)
	for _, ev := range events[1 : len(events)-1] {
		if ev.name != "iter" {
			t.Fatalf("unexpected mid-stream event %q", ev.name)
		}
		var rec statsize.IterRecord
		mustUnmarshal(t, ev.data, &rec)
		if ev.id != strconv.Itoa(rec.Iter) {
			t.Fatalf("SSE id %q does not match iteration %d", ev.id, rec.Iter)
		}
		gates := make([]string, len(rec.Gates))
		for i, g := range rec.Gates {
			gates[i] = fmt.Sprint(g)
		}
		fmt.Fprintf(&b, "iter %d gates=%s sens=%x obj=%x width=%x considered=%d pruned=%d visited=%d\n",
			rec.Iter, strings.Join(gates, ","), rec.Sensitivity, rec.Objective, rec.TotalWidth,
			rec.CandidatesConsidered, rec.CandidatesPruned, rec.NodesVisited)
	}
	fmt.Fprintf(&b, "final %x %x\n", done.FinalObjective, done.FinalWidth)

	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "traces", "c432_accelerated.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("streamed trace diverges from golden at line %d:\n got  %q\n want %q",
					i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("streamed trace diverges from golden (golden %d lines, got %d)",
			len(wantLines), len(gotLines))
	}
}

// TestOptimizeStreamReportsOptimizerError pins the error exit of a
// run: an optimizer that returns an error still ends the stream with
// exactly one terminal done event, which carries the error and is not
// marked canceled, and the run gives its session lease back.
func TestOptimizeStreamReportsOptimizerError(t *testing.T) {
	errOptimizerFailed := errors.New("optimizer failed on purpose")
	s := newDaemon(t, Config{})
	// Every run on this server fails before touching the session.
	s.optimize = func(context.Context, *statsize.Session, string, ...statsize.RunOption) (*statsize.Result, error) {
		return nil, errOptimizerFailed
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "fails", Bins: 120})
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	// The request deadline bounds the stream: a run that never records
	// done ends here without one instead of hanging the test.
	status, events, raw := optimizeStream(t, base+"/optimize",
		map[string]string{HeaderDeadlineMs: "10000"}, &OptimizeRequest{Optimizer: "accelerated"})
	if status != http.StatusOK {
		t.Fatalf("optimize: %d %s", status, raw)
	}
	var dones []sseEvent
	for _, ev := range events {
		if ev.name == "done" {
			dones = append(dones, ev)
		}
	}
	if len(dones) != 1 || events[len(events)-1].name != "done" {
		t.Fatalf("stream carried %d done events, want exactly one, last:\n%s", len(dones), raw)
	}
	var done DoneEvent
	mustUnmarshal(t, dones[0].data, &done)
	if done.Canceled || !strings.Contains(done.Error, errOptimizerFailed.Error()) {
		t.Fatalf("done event %+v, want canceled=false and error %q", done, errOptimizerFailed)
	}

	if status, body := postJSON(t, base+"/resize", &ResizeRequest{Gate: 0, Width: 2}); status != http.StatusOK {
		t.Fatalf("resize after the failed run: %d %s", status, body)
	}
	// The run releases its lease just after recording done; wait for
	// the session's lease count to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := getJSON(t, base)
		if status != http.StatusOK {
			t.Fatalf("session info: %d %s", status, body)
		}
		var info SessionInfoResponse
		mustUnmarshal(t, body, &info)
		if info.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session still holds %d leases after the failed run", info.InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// listenAndServe boots the daemon on a loopback listener and returns
// its base URL plus a channel carrying Serve's return.
func listenAndServe(t *testing.T, s *Server) (string, <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	return "http://" + l.Addr().String(), served
}

// TestShutdownCancelsOptimizeStream pins graceful shutdown against a
// long-lived stream: Shutdown cancels the run between units of work,
// the stream still delivers its terminal done event with Canceled set,
// and the drain completes without hitting the hard deadline.
func TestShutdownCancelsOptimizeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real listener and a brute-force run; skipped with -short")
	}
	s := newDaemon(t, Config{DrainTimeout: 20 * time.Second, SweepEvery: time.Hour})
	base, served := listenAndServe(t, s)

	sess := openSession(t, base, &OpenSessionRequest{Design: "c880", Client: "stream", Bins: 400})
	req, err := json.Marshal(&OptimizeRequest{Optimizer: "brute-force", MaxIterations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+sess.SessionID+"/optimize",
		"application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d", resp.StatusCode)
	}

	sc := newSSEScanner(bufio.NewReader(resp.Body))
	ev, ok := sc.next()
	if !ok || ev.name != "start" {
		t.Fatalf("first event %q ok=%v, want start", ev.name, ok)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Keep reading: the stream must end with a canceled done event, not
	// a severed connection.
	var done *DoneEvent
	for {
		ev, ok := sc.next()
		if !ok {
			break
		}
		if ev.name == "done" {
			done = new(DoneEvent)
			mustUnmarshal(t, ev.data, done)
		}
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if !done.Canceled {
		t.Fatalf("done event not marked canceled: %+v", done)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestShutdownDrainsInFlightWhatIf pins the other half of the drain
// contract: a what-if batch already executing when Shutdown begins runs
// to completion and its client sees a full 200 response.
func TestShutdownDrainsInFlightWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real listener; skipped with -short")
	}
	s := newDaemon(t, Config{DrainTimeout: 30 * time.Second, SweepEvery: time.Hour})
	base, served := listenAndServe(t, s)

	sess := openSession(t, base, &OpenSessionRequest{Design: "c880", Client: "drain", Bins: 400})
	cands := make([]CandidateWire, sess.NumGates)
	for i := range cands {
		cands[i] = CandidateWire{Gate: int64(i), Width: 1.5}
	}

	type result struct {
		status int
		body   []byte
	}
	got := make(chan result, 1)
	go func() {
		status, body := postJSON(t, base+"/v1/sessions/"+sess.SessionID+"/whatif",
			&WhatIfRequest{Candidates: cands})
		got <- result{status, body}
	}()

	// Wait for the batch to be in flight (the lease is taken before the
	// handler runs), then begin the drain.
	deadline := time.Now().Add(10 * time.Second)
	for s.Manager().Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("what-if batch never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res := <-got
	if res.status != http.StatusOK {
		t.Fatalf("drained what-if: %d %s", res.status, res.body)
	}
	var wi WhatIfResponse
	mustUnmarshal(t, res.body, &wi)
	if len(wi.Results) != sess.NumGates {
		t.Fatalf("drained batch returned %d results, want %d", len(wi.Results), sess.NumGates)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
