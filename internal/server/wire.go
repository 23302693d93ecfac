// Package server implements statsized, the timing-as-a-service daemon
// over the statsize Engine: a long-running HTTP/JSON API exposing
// load/analyze/what-if (single and batch)/resize/checkpoint-rollback/
// optimize against pooled incremental Sessions.
//
// The subsystem has three layers:
//
//   - The Manager pools live Sessions per (design, client) pair behind
//     lease-based handles: a request pins its session for exactly its
//     own duration, and an eviction sweep reclaims sessions that are
//     idle past the configured budget or beyond the live-session cap —
//     never one with a request in flight.
//   - The handlers translate HTTP/JSON to Session calls. Every decoder
//     is bounded (body-size cap, candidate-count cap, finite-float
//     validation), rejects fields its request type lacks, and returns
//     4xx on hostile input; the daemon never panics on a request body
//     (pinned by fuzz tests).
//   - Optimizer runs stream progress as server-sent events whose data
//     payload is the stable JSON encoding of core.IterRecord — the
//     same record the golden optimizer traces pin, so a streamed run
//     replays bit-identically against testdata/traces.
//
// See DESIGN.md "Service layer" for the leasing and eviction contract
// and the SSE event grammar.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"statsize"
)

// Wire limits enforced by the decoders; Config can lower (or raise)
// the body cap, the rest are fixed sanity bounds.
const (
	// DefaultMaxBodyBytes caps a request body (413 beyond it).
	DefaultMaxBodyBytes = 1 << 20
	// MaxCandidates caps one what-if batch (400 beyond it).
	MaxCandidates = 8192
	// MaxPercentiles caps one analyze request's percentile list.
	MaxPercentiles = 64
	// maxBenchBytes caps an inline .bench netlist upload within the
	// body cap; parsing is linear, so the body cap alone suffices, but
	// the explicit constant documents the intent.
	maxBenchBytes = DefaultMaxBodyBytes
)

// apiError is a request-terminating error with an HTTP status. The
// handlers map every failure to one of these; anything else escaping a
// handler is a 500 (and a bug — the fuzz suite hunts for them).
//
// Rejections the client can act on carry extra fields: RetryAfterS
// mirrors the Retry-After header (writeError sets both from the same
// value), and RunID names the already-active optimize run behind a
// run_active conflict so a client that lost its stream before the
// start event can still attach.
type apiError struct {
	Status      int    `json:"-"`
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
	RunID       string `json:"run_id,omitempty"`
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

// Rejection codes for the overload and lifecycle paths. Every cause a
// load balancer or retrying client distinguishes has its own code:
//
//	pool_full        503 — every session slot is leased; Retry-After set
//	shed             429 — admission queue overflowed or timed out; Retry-After set
//	deadline_expired 408/504 — the X-Deadline-Ms budget was already spent
//	                 (408, rejected before any work) or ran out mid-request (504)
//	draining         503 — the daemon is shutting down; Retry-After set
//	run_active       409 — an optimize run is already streaming on the session
const (
	CodePoolFull        = "pool_full"
	CodeShed            = "shed"
	CodeDeadlineExpired = "deadline_expired"
	CodeDraining        = "draining"
	CodeRunActive       = "run_active"
)

// Resilience protocol headers.
const (
	// HeaderDeadlineMs carries the client's remaining per-request budget
	// in milliseconds; the server clamps it to Config.MaxDeadline and
	// threads it into the handler context.
	HeaderDeadlineMs = "X-Deadline-Ms"
	// HeaderRunID targets an existing optimize run when reattaching to
	// its event stream.
	HeaderRunID = "X-Run-Id"
	// HeaderLastEventID carries the last iteration index a reconnecting
	// stream consumer received; replay resumes after it.
	HeaderLastEventID = "Last-Event-ID"
)

// retryAfterError decorates a sentinel error with a retry hint; the
// manager uses it so ErrPoolFull keeps working with errors.Is while the
// HTTP layer surfaces a concrete Retry-After.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// retryAfterSeconds rounds a wait hint up to whole seconds (the
// Retry-After header's granularity), never below 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// errorEnvelope is the JSON body of every non-2xx response.
type errorEnvelope struct {
	Error *apiError `json:"error"`
}

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// OpenSessionRequest creates (or attaches to) a pooled session.
// Exactly one of Design (a benchmark name) or Bench (an inline ISCAS
// .bench netlist, with Design naming it) loads the circuit.
type OpenSessionRequest struct {
	Design string `json:"design"`          // benchmark name, or the name for an uploaded netlist
	Client string `json:"client"`          // pool key second half; "" means the shared anonymous client
	Bench  string `json:"bench,omitempty"` // inline .bench source; empty means Design is a benchmark name
	Bins   int    `json:"bins,omitempty"`  // SSTA grid resolution; 0 means the engine default
	// Objective selects the session objective: "mean" or "pN" /
	// "pN.N" (e.g. "p99", "p99.9"); empty means the engine default.
	Objective string `json:"objective,omitempty"`
}

// OpenSessionResponse describes the (possibly pre-existing) session.
type OpenSessionResponse struct {
	SessionID string  `json:"session_id"`
	Created   bool    `json:"created"` // false when attached to a pooled session
	Design    string  `json:"design"`
	NumGates  int     `json:"num_gates"`
	Objective string  `json:"objective"`
	DT        float64 `json:"dt"` // SSTA grid bin width (ns)
}

// WhatIfRequest evaluates candidates without committing. Either the
// single Gate/Width pair or the Candidates list must be set (not both).
type WhatIfRequest struct {
	Gate       *int64          `json:"gate,omitempty"`
	Width      *float64        `json:"width,omitempty"`
	Candidates []CandidateWire `json:"candidates,omitempty"`
}

// CandidateWire is one hypothetical resize on the wire.
type CandidateWire struct {
	Gate  int64   `json:"gate"`
	Width float64 `json:"width"`
}

// WhatIfResultWire mirrors session.WhatIfResult.
type WhatIfResultWire struct {
	Gate         int64   `json:"gate"`
	Width        float64 `json:"width"`
	Objective    float64 `json:"objective"`
	Delta        float64 `json:"delta"`
	Sensitivity  float64 `json:"sensitivity"`
	NodesVisited int     `json:"nodes_visited"`
}

// WhatIfResponse carries the evaluated candidates in request order.
type WhatIfResponse struct {
	Base    float64            `json:"base_objective"`
	Results []WhatIfResultWire `json:"results"`
}

// ResizeRequest commits one width change.
type ResizeRequest struct {
	Gate  int64   `json:"gate"`
	Width float64 `json:"width"`
}

// ResizeResponse mirrors session.ResizeStats.
type ResizeResponse struct {
	Gate            int64   `json:"gate"`
	OldWidth        float64 `json:"old_width"`
	NewWidth        float64 `json:"new_width"`
	NodesRecomputed int     `json:"nodes_recomputed"`
	FullPassNodes   int     `json:"full_pass_nodes"`
	Objective       float64 `json:"objective"`
}

// AnalyzeRequest queries the live analysis. Percentiles lists the
// quantiles to evaluate (each in (0,1)); empty means objective-only.
type AnalyzeRequest struct {
	Percentiles []float64 `json:"percentiles,omitempty"`
}

// AnalyzeResponse summarizes the current timing state.
type AnalyzeResponse struct {
	Objective     float64            `json:"objective"`
	ObjectiveName string             `json:"objective_name"`
	TotalWidth    float64            `json:"total_width"`
	NumGates      int                `json:"num_gates"`
	Percentiles   map[string]float64 `json:"percentiles,omitempty"`
}

// CheckpointResponse reports the checkpoint depth after a push/pop.
type CheckpointResponse struct {
	Depth int `json:"depth"`
}

// OptimizeRequest starts a streamed optimizer run on the session.
type OptimizeRequest struct {
	Optimizer       string  `json:"optimizer"`                   // one of statsize.Optimizers(); required
	MaxIterations   int     `json:"max_iterations,omitempty"`    // 0 means the optimizer default
	MaxAreaIncrease float64 `json:"max_area_increase,omitempty"` // fractional cap; 0 means unlimited
	MultiSize       int     `json:"multi_size,omitempty"`        // top-k gates per iteration; 0 means default
}

// StartEvent is the SSE "start" event payload: the session state the
// run began from. RunID names the run for stream reattachment: a client
// whose stream breaks mid-run reconnects with X-Run-Id and
// Last-Event-ID and replay resumes after the last iteration it saw.
type StartEvent struct {
	RunID            string  `json:"run_id"`
	SessionID        string  `json:"session_id"`
	Design           string  `json:"design"`
	Optimizer        string  `json:"optimizer"`
	Objective        string  `json:"objective"`
	InitialObjective float64 `json:"initial_objective"`
	InitialWidth     float64 `json:"initial_width"`
}

// DoneEvent is the SSE "done" event payload, terminal on every stream:
// on success Error is empty; on cancellation or failure Error explains
// and the counters describe the partial run.
type DoneEvent struct {
	Iterations      int     `json:"iterations"`
	FinalObjective  float64 `json:"final_objective"`
	FinalWidth      float64 `json:"final_width"`
	ImprovementPct  float64 `json:"improvement_pct"`
	AreaIncreasePct float64 `json:"area_increase_pct"`
	ElapsedNS       int64   `json:"elapsed_ns"`
	Canceled        bool    `json:"canceled,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// HealthResponse is the /healthz body. Beyond liveness it reports the
// admission controller's overload state — queue depth and inflight per
// work class — so a load balancer can steer traffic away from a busy
// replica before requests start shedding.
type HealthResponse struct {
	Status    string           `json:"status"` // "ok", or "draining" during shutdown
	UptimeS   float64          `json:"uptime_s"`
	GoDesign  string           `json:"service"` // constant "statsized"
	Admission *AdmissionHealth `json:"admission,omitempty"`
}

// AdmissionHealth is the admission controller's /healthz snapshot.
type AdmissionHealth struct {
	Enabled bool                   `json:"enabled"`
	Classes map[string]ClassHealth `json:"classes,omitempty"`
}

// ClassHealth is one work class's live occupancy.
type ClassHealth struct {
	InFlight int   `json:"in_flight"` // admitted requests currently executing
	Slots    int   `json:"slots"`     // admission semaphore capacity
	Queued   int   `json:"queued"`    // waiters in the admission queue right now
	Queue    int   `json:"queue"`     // admission queue capacity
	Admitted int64 `json:"admitted"`  // requests ever admitted
	Shed     int64 `json:"shed"`      // requests rejected for overload
}

// StatsResponse is the /stats body: the engine-wide rollup plus the
// session manager's pool accounting.
type StatsResponse struct {
	Engine   statsize.EngineStats `json:"engine"`
	Sessions ManagerStats         `json:"sessions"`
}

// SessionInfoResponse is the GET /v1/sessions/{id} body. It carries
// only manager-level metadata — deliberately nothing that would need
// the session lock, so it stays responsive during optimizer runs.
type SessionInfoResponse struct {
	SessionID string  `json:"session_id"`
	Design    string  `json:"design"`
	Client    string  `json:"client"`
	NumGates  int     `json:"num_gates"`
	Objective string  `json:"objective"`
	DT        float64 `json:"dt"`
	IdleS     float64 `json:"idle_s"`
	InFlight  int     `json:"in_flight"`
	AgeS      float64 `json:"age_s"`
}

// decodeJSON reads and decodes one bounded JSON request body into dst.
// Failures map to precise 4xx statuses: 413 when the body exceeds the
// cap, 400 naming the field for a field dst does not have (a misspelled
// option must not fall back to its default), 400 for malformed or
// trailing JSON. A missing body decodes the zero value (endpoints with
// all-optional fields accept it).
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body = zero-value request
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		// encoding/json reports an unknown field only in its message.
		if field, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			return badRequest("unknown_field", "request body has unknown field %s", field)
		}
		return badRequest("bad_json", "decoding request body: %v", err)
	}
	// Trailing garbage after the JSON value is a malformed request,
	// not an ignorable suffix.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("bad_json", "trailing data after JSON body")
	}
	return nil
}

// finite rejects NaN and ±Inf, which cannot arrive through valid JSON
// but guard the decoders against future non-JSON ingestion paths.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validateWhatIf normalizes a WhatIfRequest into a candidate list.
func validateWhatIf(req *WhatIfRequest) ([]statsize.Candidate, *apiError) {
	single := req.Gate != nil || req.Width != nil
	if single && len(req.Candidates) > 0 {
		return nil, badRequest("ambiguous_whatif", "set either gate/width or candidates, not both")
	}
	if single {
		if req.Gate == nil || req.Width == nil {
			return nil, badRequest("missing_field", "single what-if needs both gate and width")
		}
		req.Candidates = []CandidateWire{{Gate: *req.Gate, Width: *req.Width}}
	}
	if len(req.Candidates) == 0 {
		return nil, badRequest("missing_field", "what-if needs gate/width or a candidates list")
	}
	if len(req.Candidates) > MaxCandidates {
		return nil, badRequest("too_many_candidates", "batch of %d exceeds the %d-candidate cap",
			len(req.Candidates), MaxCandidates)
	}
	out := make([]statsize.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		g, err := gateID(c.Gate)
		if err != nil {
			return nil, err
		}
		if !finite(c.Width) {
			return nil, badRequest("bad_width", "candidate %d width is not finite", i)
		}
		out[i] = statsize.Candidate{Gate: g, Width: c.Width}
	}
	return out, nil
}

// gateID range-checks a wire gate id into the GateID type; the session
// re-validates against the actual netlist size.
func gateID(g int64) (statsize.GateID, *apiError) {
	if g < 0 || g > math.MaxInt32 {
		return 0, badRequest("bad_gate", "gate %d out of representable range", g)
	}
	return statsize.GateID(g), nil
}

// validateResize checks a ResizeRequest.
func validateResize(req *ResizeRequest) (statsize.GateID, float64, *apiError) {
	g, err := gateID(req.Gate)
	if err != nil {
		return 0, 0, err
	}
	if !finite(req.Width) {
		return 0, 0, badRequest("bad_width", "width is not finite")
	}
	return g, req.Width, nil
}

// validateAnalyze checks an AnalyzeRequest.
func validateAnalyze(req *AnalyzeRequest) *apiError {
	if len(req.Percentiles) > MaxPercentiles {
		return badRequest("too_many_percentiles", "%d percentiles exceeds the cap of %d",
			len(req.Percentiles), MaxPercentiles)
	}
	for _, p := range req.Percentiles {
		if !finite(p) || p <= 0 || p >= 1 {
			return badRequest("bad_percentile", "percentile %v outside (0,1)", p)
		}
	}
	return nil
}

// validateOpen checks an OpenSessionRequest.
func validateOpen(req *OpenSessionRequest) *apiError {
	if req.Design == "" {
		return badRequest("missing_field", "design is required")
	}
	if len(req.Design) > 256 || len(req.Client) > 256 {
		return badRequest("bad_name", "design/client names capped at 256 bytes")
	}
	if len(req.Bench) > maxBenchBytes {
		return badRequest("bench_too_large", "inline netlist exceeds %d bytes", maxBenchBytes)
	}
	if req.Bins < 0 || req.Bins > 1<<16 {
		return badRequest("bad_bins", "bins %d outside [0,65536]", req.Bins)
	}
	if _, err := parseObjective(req.Objective); err != nil {
		return err
	}
	return nil
}

// percentileName is the grammar of a percentile objective: "p", digits,
// and an optional fraction. A decimal comma, an exponent, a hex float,
// an underscore or trailing text is a typo, not a different percentile.
var percentileName = regexp.MustCompile(`^p[0-9]+(\.[0-9]+)?$`)

// parseObjective maps a wire objective name to an Objective; "" means
// engine default (nil).
func parseObjective(name string) (statsize.Objective, *apiError) {
	switch {
	case name == "":
		return nil, nil
	case name == "mean":
		return statsize.Mean{}, nil
	case percentileName.MatchString(name):
		pct, err := strconv.ParseFloat(name[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, badRequest("bad_objective", "objective %q: want \"mean\" or \"pN\" with N in (0,100)", name)
		}
		return statsize.Percentile(pct / 100), nil
	default:
		return nil, badRequest("bad_objective", "objective %q: want \"mean\" or \"pN\"", name)
	}
}

// validateOptimize checks an OptimizeRequest against the optimizer
// names.
func validateOptimize(req *OptimizeRequest) *apiError {
	if req.Optimizer == "" {
		return badRequest("missing_field", "optimizer is required")
	}
	known := statsize.Optimizers()
	found := false
	for _, n := range known {
		if n == req.Optimizer {
			found = true
			break
		}
	}
	if !found {
		return badRequest("unknown_optimizer", "optimizer %q not registered (known: %v)", req.Optimizer, known)
	}
	if req.MaxIterations < 0 || req.MaxIterations > 1<<20 {
		return badRequest("bad_iterations", "max_iterations %d outside [0,1048576]", req.MaxIterations)
	}
	if !finite(req.MaxAreaIncrease) || req.MaxAreaIncrease < 0 {
		return badRequest("bad_area_cap", "max_area_increase must be a finite non-negative fraction")
	}
	if req.MultiSize < 0 || req.MultiSize > 1<<16 {
		return badRequest("bad_multi_size", "multi_size %d outside [0,65536]", req.MultiSize)
	}
	return nil
}
