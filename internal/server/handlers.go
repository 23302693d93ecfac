package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"statsize"
)

// writeJSON emits one 2xx JSON response.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body) // a failed write means the client left; nothing to do
}

// writeError emits the error envelope for any handler failure. A
// rejection carrying a retry hint mirrors it into the Retry-After
// header so proxies and plain HTTP clients see it without parsing the
// body.
func writeError(w http.ResponseWriter, err *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if err.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(err.RetryAfterS))
	}
	w.WriteHeader(err.Status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: err})
}

// toAPIError normalizes every failure class a handler can see into an
// apiError with the right status: pool errors to 404/410/503, session
// sentinel errors to 410/409, context errors to 504/499 (a request
// deadline expiring mid-work surfaces the partial-cancellation
// contract, not a client mistake), apiErrors pass through, everything
// else is a 400 (the session layer validates inputs and its errors
// describe client mistakes — bad gate ids, bad widths). A
// retryAfterError wrapper contributes its hint to whatever the
// underlying error maps to.
func toAPIError(err error) *apiError {
	var ae *apiError
	var ra *retryAfterError
	retryAfter := 0
	if errors.As(err, &ra) {
		retryAfter = retryAfterSeconds(ra.after)
	}
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, ErrNoSession):
		return &apiError{Status: http.StatusNotFound, Code: "no_session", Message: err.Error()}
	case errors.Is(err, ErrSessionGone):
		return &apiError{Status: http.StatusGone, Code: "session_gone", Message: err.Error()}
	case errors.Is(err, ErrPoolFull):
		return &apiError{Status: http.StatusServiceUnavailable, Code: CodePoolFull,
			Message: err.Error(), RetryAfterS: retryAfter}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Code: CodeDeadlineExpired,
			Message: "request deadline expired mid-work; partial mutations were rolled back"}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: statusClientGone, Code: "canceled", Message: err.Error()}
	case errors.Is(err, statsize.ErrSessionClosed):
		return &apiError{Status: http.StatusGone, Code: "session_closed", Message: err.Error()}
	case errors.Is(err, statsize.ErrNoCheckpoint):
		return &apiError{Status: http.StatusConflict, Code: "no_checkpoint", Message: err.Error()}
	default:
		return badRequest("request_failed", "%v", err)
	}
}

// routes builds the daemon's mux. Every work route runs behind the
// deadline middleware (X-Deadline-Ms threads into the handler context,
// pre-expired budgets rejected before any work) and then admission
// control in its work class: session opens, analyze, and optimize are
// the expensive class (a fresh SSTA pass, percentile sweeps, optimizer
// runs); everything else is the cheap query class. /healthz and /stats
// bypass both — load balancers must reach them during overload, which
// is exactly when they matter.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	query := func(h http.HandlerFunc) http.HandlerFunc { return s.withDeadline(s.admit(classQuery, h)) }
	heavy := func(h http.HandlerFunc) http.HandlerFunc { return s.withDeadline(s.admit(classHeavy, h)) }
	mux.HandleFunc("POST /v1/sessions", heavy(s.handleOpenSession))
	mux.HandleFunc("GET /v1/sessions/{id}", query(s.handleSessionInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", query(s.handleCloseSession))
	mux.HandleFunc("POST /v1/sessions/{id}/analyze", heavy(s.withLease(s.handleAnalyze)))
	mux.HandleFunc("POST /v1/sessions/{id}/whatif", query(s.withLease(s.handleWhatIf)))
	mux.HandleFunc("POST /v1/sessions/{id}/resize", query(s.withLease(s.handleResize)))
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", query(s.withLease(s.handleCheckpoint)))
	mux.HandleFunc("POST /v1/sessions/{id}/rollback", query(s.withLease(s.handleRollback)))
	// Optimize manages its own admission: a fresh run's heavy-class
	// ticket transfers to the detached run (released when the optimizer
	// finishes, not when the originating request ends), and stream
	// reattachment is ungated so a draining daemon can still deliver
	// terminal done events to reconnecting clients.
	mux.HandleFunc("POST /v1/sessions/{id}/optimize", s.withDeadline(s.handleOptimize))
	return mux
}

// withLease runs h inside Manager.Do on the session the {id} path
// segment names, so the lease spans the handler and is released on
// every exit. h writes its own success response; a lease failure or an
// error h returns becomes the error envelope.
func (s *Server) withLease(h func(http.ResponseWriter, *http.Request, *Lease) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := s.mgr.Do(r.PathValue("id"), func(lease *Lease) error { return h(w, r, lease) })
		if err != nil {
			writeError(w, toAPIError(err))
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	select {
	case <-s.streamCtx.Done():
		status = "draining"
		code = http.StatusServiceUnavailable
	default:
	}
	writeJSON(w, code, &HealthResponse{
		Status:    status,
		UptimeS:   s.clock().Sub(s.started).Seconds(),
		GoDesign:  "statsized",
		Admission: s.adm.health(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &StatsResponse{
		Engine:   s.eng.Stats(),
		Sessions: s.mgr.Stats(),
	})
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateOpen(&req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.mgr.OpenOrAttach(r.Context(), &req)
	if err != nil {
		writeError(w, toAPIError(err))
		return
	}
	status := http.StatusOK
	if resp.Created {
		status = http.StatusCreated
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.Info(r.PathValue("id"))
	if err != nil {
		writeError(w, toAPIError(err))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Close(r.PathValue("id")); err != nil {
		writeError(w, toAPIError(err))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Closed bool `json:"closed"`
	}{Closed: true})
}

// handleAnalyze reads the objective, total width and percentiles under
// one session hold, so they describe one committed state.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, lease *Lease) error {
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	if err := validateAnalyze(&req); err != nil {
		return err
	}
	resp := &AnalyzeResponse{
		ObjectiveName: lease.ObjectiveName(),
		NumGates:      lease.NumGates(),
	}
	err := lease.Session().Do(func(tx *statsize.SessionTx) error {
		resp.Objective = tx.Objective()
		resp.TotalWidth = tx.Design().TotalWidth()
		if len(req.Percentiles) > 0 {
			resp.Percentiles = make(map[string]float64, len(req.Percentiles))
			for _, p := range req.Percentiles {
				resp.Percentiles[strconv.FormatFloat(p, 'g', -1, 64)] = tx.Analysis().Percentile(p)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleWhatIf reads the base objective and evaluates the batch under
// one session hold, so every result's delta is measured from the base
// the response reports.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request, lease *Lease) error {
	var req WhatIfRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	cands, apiErr := validateWhatIf(&req)
	if apiErr != nil {
		return apiErr
	}
	var (
		base    float64
		results []statsize.WhatIfResult
	)
	err := lease.Session().Do(func(tx *statsize.SessionTx) (err error) {
		base = tx.Objective()
		results, err = tx.WhatIfBatch(r.Context(), cands)
		return err
	})
	if err != nil {
		return err
	}
	resp := &WhatIfResponse{Base: base, Results: make([]WhatIfResultWire, len(results))}
	for i, res := range results {
		resp.Results[i] = WhatIfResultWire{
			Gate:         int64(res.Gate),
			Width:        res.Width,
			Objective:    res.Objective,
			Delta:        res.Delta,
			Sensitivity:  res.Sensitivity,
			NodesVisited: res.NodesVisited,
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request, lease *Lease) error {
	var req ResizeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	g, width, apiErr := validateResize(&req)
	if apiErr != nil {
		return apiErr
	}
	st, err := lease.Session().Resize(r.Context(), g, width)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, &ResizeResponse{
		Gate:            int64(st.Gate),
		OldWidth:        st.OldWidth,
		NewWidth:        st.NewWidth,
		NodesRecomputed: st.NodesRecomputed,
		FullPassNodes:   st.FullPassNodes,
		Objective:       st.Objective,
	})
	return nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, lease *Lease) error {
	depth, err := lease.Session().Checkpoint()
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, &CheckpointResponse{Depth: depth})
	return nil
}

// handleRollback reports the depth its own pop left, read under the
// same session hold as the pop.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, lease *Lease) error {
	var depth int
	err := lease.Session().Do(func(tx *statsize.SessionTx) error {
		if err := tx.Rollback(); err != nil {
			return err
		}
		depth = tx.CheckpointDepth()
		return nil
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, &CheckpointResponse{Depth: depth})
	return nil
}

// handleOptimize starts a detached optimizer run and streams it, or —
// when X-Run-Id names an existing run — reattaches to that run's event
// history, resuming after the Last-Event-ID iteration. Reattachment is
// deliberately cheap: no admission ticket, no session lease (replay
// reads recorded bytes), so a client recovering from a truncated
// stream is never shed behind the very overload that broke it.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if runID := r.Header.Get(HeaderRunID); runID != "" {
		// Iteration ids start at 0, so "no Last-Event-ID" is -1 (full
		// replay), distinct from "I saw iteration 0".
		lastIter := -1
		if h := r.Header.Get(HeaderLastEventID); h != "" {
			n, err := strconv.Atoi(h)
			if err != nil || n < 0 {
				writeError(w, badRequest("bad_last_event_id", "%s %q is not a non-negative iteration index", HeaderLastEventID, h))
				return
			}
			lastIter = n
		}
		rn, aerr := s.runs.find(r.PathValue("id"), runID)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		cur, aerr := rn.resume(lastIter)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		s.streamRun(w, r, rn, cur)
		return
	}

	var req OptimizeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateOptimize(&req); err != nil {
		writeError(w, err)
		return
	}
	t, aerr := s.adm.acquire(r.Context(), classHeavy)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	rn, aerr := s.launchRun(r, t, &req)
	if aerr != nil {
		t.release() // shed or failed launch: give the slot back before erroring
		writeError(w, aerr)
		return
	}
	s.streamRun(w, r, rn, &runCursor{})
}

// recoverMiddleware turns a handler panic into a 500 instead of
// killing the connection silently; the daemon itself survives (the
// fuzz suite's job is to prove this path stays unreachable from
// request bodies).
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // the net/http-sanctioned abort, not a bug
				}
				writeError(w, &apiError{
					Status:  http.StatusInternalServerError,
					Code:    "internal_panic",
					Message: fmt.Sprintf("handler panic: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}
