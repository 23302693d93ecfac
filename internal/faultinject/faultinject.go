// Package faultinject turns a fault plan into a misbehaving client
// transport: an http.RoundTripper that resets connections and truncates
// response bodies. Every decision comes from a seed-driven
// deterministic RNG, so a chaos run that found a bug is replayable from
// its seed alone.
//
// The package is a test dependency: the chaos tests in internal/client
// drive the resilient client through its Transport. The daemon never
// imports it.
package faultinject

import (
	"errors"
	"io"
	"net/http"
	"sync/atomic"
)

// Plan declares which faults to inject and how often. Probabilities
// are in [0, 1]; a nil fault section never fires. The zero Plan
// injects nothing.
type Plan struct {
	// Seed drives every injection decision. Two runs with the same
	// plan and the same request order make the same decisions.
	Seed uint64
	// Reset kills the exchange as a connection-level failure: the
	// transport returns ErrInjectedReset instead of a response.
	Reset *ResetFault
	// Truncate cuts the response body after a byte budget — the SSE
	// mid-stream truncation shape.
	Truncate *TruncateFault
}

// ResetFault simulates a connection reset with probability P.
type ResetFault struct {
	P float64
}

// TruncateFault cuts the response body after AfterBytes (default 512)
// with probability P.
type TruncateFault struct {
	P          float64
	AfterBytes int64
}

// ErrInjectedReset is the connection-reset error the transport returns;
// clients and tests match it with errors.Is.
var ErrInjectedReset = errors.New("faultinject: injected connection reset")

// rng is splitmix64 — tiny, well-mixed, and deterministic across
// platforms, which is the whole point here.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hit draws one probability decision.
func (r *rng) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.next()>>11)/(1<<53) < p
}

// decision is one request's resolved fault set, drawn in a fixed order
// so the sequence depends only on (seed, request ordinal).
type decision struct {
	reset   bool
	truncAt int64
}

// Transport wraps inner (nil means http.DefaultTransport) with the
// plan's faults: connection resets, and response-body truncation that
// surfaces as io.ErrUnexpectedEOF mid-read — the shape a broken SSE
// stream has in the wild.
func (p *Plan) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &transport{plan: p, inner: inner}
}

// transport owns the request ordinal counter its decisions are keyed
// on.
type transport struct {
	plan  *Plan
	seq   atomic.Uint64
	inner http.RoundTripper
}

// decide draws the fault set for the next request. The per-request RNG
// is keyed on (seed, request ordinal), so one request's decision is
// independent of how many draws earlier requests made.
func (t *transport) decide() decision {
	n := t.seq.Add(1)
	r := &rng{s: t.plan.Seed ^ (n * 0xA24BAED4963EE407)}
	var d decision
	if rs := t.plan.Reset; rs != nil && r.hit(rs.P) {
		d.reset = true
	}
	if tr := t.plan.Truncate; tr != nil && r.hit(tr.P) {
		d.truncAt = tr.AfterBytes
		if d.truncAt == 0 {
			d.truncAt = 512
		}
	}
	return d
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.decide()
	if d.reset {
		return nil, ErrInjectedReset
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || d.truncAt == 0 {
		return resp, err
	}
	resp.Body = &truncatedBody{inner: resp.Body, left: d.truncAt}
	resp.ContentLength = -1
	return resp, nil
}

// truncatedBody cuts the stream after its byte budget: reads past the
// budget fail with io.ErrUnexpectedEOF, exactly like a torn connection.
type truncatedBody struct {
	inner io.ReadCloser
	left  int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.inner.Read(p)
	b.left -= int64(n)
	if err == nil && b.left <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
