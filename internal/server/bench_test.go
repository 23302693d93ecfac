package server

import (
	"net/http"
	"testing"
	"time"
)

// BenchmarkWhatIfBatchHTTP measures the full service path of the
// daemon's hot endpoint — JSON decode, lease acquire, 32-candidate
// WhatIfBatch, JSON encode — against a pooled c880 session. The
// daemon under open-loop load is perfbench's serve workload; this
// benchmark pins the single-request cost so service-layer regressions
// show up in the benchmark smoke run.
func BenchmarkWhatIfBatchHTTP(b *testing.B) {
	_, ts := newHTTP(b, Config{SweepEvery: time.Hour})
	sess := openSession(b, ts.URL, &OpenSessionRequest{Design: "c880", Client: "bench", Bins: 400})
	cands := make([]CandidateWire, 32)
	for i := range cands {
		cands[i] = CandidateWire{Gate: int64(i % sess.NumGates), Width: 1.5}
	}
	url := ts.URL + "/v1/sessions/" + sess.SessionID + "/whatif"
	req := &WhatIfRequest{Candidates: cands}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, body := postJSON(b, url, req)
		if status != http.StatusOK {
			b.Fatalf("what-if: %d %s", status, body)
		}
	}
}

// BenchmarkOpenAttachHTTP measures the pooled-open fast path: every
// iteration after the first attaches to the live session instead of
// paying a fresh SSTA pass.
func BenchmarkOpenAttachHTTP(b *testing.B) {
	_, ts := newHTTP(b, Config{SweepEvery: time.Hour})
	openSession(b, ts.URL, &OpenSessionRequest{Design: "c432", Client: "bench", Bins: 400})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := openSession(b, ts.URL, &OpenSessionRequest{Design: "c432", Client: "bench", Bins: 400})
		if resp.Created {
			b.Fatal("attach created a fresh session")
		}
	}
}
