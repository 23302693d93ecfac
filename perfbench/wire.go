package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"statsize"
	"statsize/client"
	"statsize/internal/server"
)

// spanHeader carries the client's round-trip span id to the daemon's
// middleware, which parents its handler span on it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// spanRef is the span (and op) a client call runs under.
type spanRef struct {
	id int
	op int64
}

func withSpan(ctx context.Context, id int, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

// daemon is an in-process statsized on a loopback port and a resilient
// client for it.
type daemon struct {
	srv    *server.Server
	cl     *client.Client
	tp     *http.Transport
	served chan error
}

// startDaemon serves a fresh engine on 127.0.0.1 with at most conns
// client connections. With a tracer, the client transport records a
// client.rtt span per attempt and the daemon a server.handler span per
// request.
func startDaemon(tr *tracer, eng *statsize.Engine, conns int) (*daemon, error) {
	cfg := server.Config{Logf: func(string, ...any) {}}
	if tr != nil {
		cfg.Middleware = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, err := strconv.Atoi(r.Header.Get(spanHeader))
				if err != nil {
					parent = -1
				}
				id := tr.begin("server.handler", parent, -1)
				next.ServeHTTP(w, r)
				tr.end(id)
			})
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(eng, cfg), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(l) }()
	d.tp = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	var rt http.RoundTripper = d.tp
	if tr != nil {
		rt = &tracedTransport{tr: tr, next: d.tp}
	}
	d.cl, err = client.New(client.Config{BaseURL: "http://" + l.Addr().String(), Transport: rt})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close shuts the daemon down and waits for its server loop to end.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // best effort: a drain error leaves nothing to clean up here
	<-d.served
	d.tp.CloseIdleConnections()
}

// health reads the admission counters from /healthz and records them on
// a server.health span.
func (d *daemon) health(ctx context.Context, tr *tracer) (admitted, shed int64, err error) {
	h, err := d.cl.Health(ctx)
	if err != nil {
		return 0, 0, err
	}
	if h.Admission != nil {
		for _, c := range h.Admission.Classes {
			admitted += c.Admitted
			shed += c.Shed
		}
	}
	id := tr.begin("server.health", -1, -1)
	tr.end(id, "admitted", admitted, "shed", shed)
	return admitted, shed, nil
}

// call runs one client call under a client.call span.
func call[T any](ctx context.Context, tr *tracer, parent int, op int64, name string, f func(ctx context.Context) (T, error)) (T, error) {
	id := tr.begin("client."+name, parent, op)
	v, err := f(withSpan(ctx, id, op))
	tr.end(id)
	return v, err
}

// tracedTransport records one client.rtt span per HTTP attempt, from
// the request write to the end of the response body, with the bytes
// each way.
type tracedTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{-1, -1}
	}
	id := t.tr.begin("client.rtt", ref.id, ref.op)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.end(id, "req_bytes", req.ContentLength)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.end(id, "req_bytes", req.ContentLength, "resp_bytes", n)
	}}
	return resp, nil
}

// countingBody counts the bytes read and reports them once, at EOF or
// Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if errors.Is(err, io.EOF) {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *countingBody) finish() {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
}

// wireMetrics derives the client, server and wire metrics of a traced
// run from its spans.
func wireMetrics(spans []span) map[string]metric {
	byID := make(map[int]*span, len(spans))
	handler := make(map[int]time.Duration) // rtt span id -> its handler's duration
	calls, rtts := 0, 0
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch {
		case s.Name == "server.handler" && s.Parent >= 0:
			handler[s.Parent] = s.dur()
		case s.Name == "client.rtt":
			rtts++
		case layerOf(s.Name) == "client":
			calls++
		}
	}
	var overhead []float64
	for rtt, h := range handler {
		if s, ok := byID[rtt]; ok {
			overhead = append(overhead, float64(s.dur()-h)/1e6)
		}
	}
	attempts := 0.0
	if calls > 0 {
		attempts = float64(rtts) / float64(calls)
	}
	admitted, _ := attrSum(spans, "server.health", "admitted")
	shed, _ := attrSum(spans, "server.health", "shed")
	return map[string]metric{
		"client.rtt_ms":            {median(durationsMs(spans, "client.rtt")), "ms"},
		"server.handler_ms":        {median(durationsMs(spans, "server.handler")), "ms"},
		"server.wire_overhead_ms":  {median(overhead), "ms"},
		"wire.req_bytes":           {mean(attrValues(spans, "client.rtt", "req_bytes")), "bytes"},
		"wire.resp_bytes":          {mean(attrValues(spans, "client.rtt", "resp_bytes")), "bytes"},
		"client.attempts_per_call": {attempts, "count"},
		"server.admitted":          {admitted, "count"},
		"server.shed":              {shed, "count"},
	}
}

// probeWire drives a short closed loop of what-ifs, batches and
// analyses through the client against an in-process daemon holding the
// workload's circuit, so the wire layers are measured on every
// workload.
func probeWire(ctx context.Context, tr *tracer, name, bench string, bins int, rng *rand.Rand) error {
	eng, err := statsize.New(statsize.WithBins(bins))
	if err != nil {
		return err
	}
	dm, err := startDaemon(tr, eng, 1)
	if err != nil {
		return err
	}
	defer dm.close()
	root := tr.begin("probe.wire", -1, -1)
	defer tr.end(root)
	sess, err := call(ctx, tr, root, -1, "open", func(ctx context.Context) (*client.OpenSessionResponse, error) {
		return dm.cl.Open(ctx, &client.OpenSessionRequest{Design: name, Client: "probe", Bench: bench, Bins: bins})
	})
	if err != nil {
		return fmt.Errorf("open %s: %w", name, err)
	}
	for i := 0; i < 40; i++ {
		var err error
		switch {
		case i%8 == 7:
			cands := make([]client.CandidateWire, 16)
			for j := range cands {
				cands[j] = client.CandidateWire{Gate: int64(rng.Intn(sess.NumGates)), Width: 1.5}
			}
			_, err = call(ctx, tr, root, int64(i), "whatif_batch", func(ctx context.Context) (*client.WhatIfResponse, error) {
				return dm.cl.WhatIf(ctx, sess.SessionID, &client.WhatIfRequest{Candidates: cands})
			})
		case i%8 == 3:
			_, err = call(ctx, tr, root, int64(i), "analyze", func(ctx context.Context) (*client.AnalyzeResponse, error) {
				return dm.cl.Analyze(ctx, sess.SessionID, &client.AnalyzeRequest{Percentiles: []float64{0.5, 0.9, 0.99}})
			})
		default:
			g, w := int64(rng.Intn(sess.NumGates)), 1.5
			_, err = call(ctx, tr, root, int64(i), "whatif", func(ctx context.Context) (*client.WhatIfResponse, error) {
				return dm.cl.WhatIf(ctx, sess.SessionID, &client.WhatIfRequest{Gate: &g, Width: &w})
			})
		}
		if err != nil {
			return err
		}
	}
	_, _, err = dm.health(ctx, tr)
	return err
}
