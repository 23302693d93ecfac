package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"statsize"
)

// An optimize run is detached from the HTTP request that started it:
// the optimizer executes in its own goroutine, recording progress into
// a bounded in-memory history, and HTTP streams are subscribers over
// that history. This is what makes the stream fault-tolerant — a
// truncated connection does not kill the run; the client reconnects
// with X-Run-Id and Last-Event-ID and replay resumes after the last
// iteration it received, while a run nobody is watching is canceled
// once the linger grace expires (so a vanished client cannot pin a
// session and its lease forever).
//
// Ownership: the run owns its session lease and its heavy-class
// admission ticket from the moment the launching handler stores them
// into the run's fields until the optimizer goroutine returns, which
// releases both. The lease is the one pin that outlives a Manager.Do
// callback: launchRun retains it inside Do, and executeRun's deferred
// release drops it. The recorded history outlives the lease by the linger
// window so a client that lost the tail of the stream can still fetch
// its terminal done event.

// recordedEvent is one SSE frame in a run's history: the name, the SSE
// id (< 0 omits the field), and the payload bytes marshaled exactly
// once so every subscriber — first attach or replay — streams
// identical bytes.
type recordedEvent struct {
	name string
	id   int
	data json.RawMessage
}

// runHistory caps the retained iter events per run; reconnecting past
// the window yields 410 history_gap.
const runHistory = 4096

// optRun is one detached optimizer run.
type optRun struct {
	id        string
	sessionID string
	linger    time.Duration
	history   int // max retained iter events

	cancel context.CancelFunc // cancels the run context

	lease  *Lease  // retained for the run; released when the optimizer returns
	ticket *ticket // heavy-class admission slot, released with the lease

	mu         sync.Mutex
	start      recordedEvent   // retained for the run's whole lifetime
	iters      []recordedEvent // trailing window of iter events
	totalIters int             // iters ever recorded (ordinals [total-len, total) retained)
	maxDropped int             // highest iter id trimmed out of the window; -1 if none
	doneEv     recordedEvent
	done       bool
	subs       int           // attached streams
	gen        int           // detach generation, for the linger watchdog
	updated    chan struct{} // closed and replaced on every record
}

// runCursor is one subscriber's position in a run's history.
type runCursor struct {
	sentStart bool
	nextOrd   int
	sentDone  bool
}

// record appends one iter event. The optimizer's OnIteration callback
// lands here, so it must never block: append, trim, broadcast.
func (rn *optRun) record(ev recordedEvent) {
	rn.mu.Lock()
	rn.iters = append(rn.iters, ev)
	rn.totalIters++
	if len(rn.iters) > rn.history {
		rn.maxDropped = rn.iters[0].id
		rn.iters = rn.iters[1:]
	}
	rn.broadcastLocked()
	rn.mu.Unlock()
}

// finish records the terminal done event and marks the run complete.
func (rn *optRun) finish(ev recordedEvent) {
	rn.mu.Lock()
	rn.doneEv = ev
	rn.done = true
	rn.broadcastLocked()
	rn.mu.Unlock()
}

func (rn *optRun) broadcastLocked() {
	close(rn.updated)
	rn.updated = make(chan struct{})
}

// attach registers a subscriber.
func (rn *optRun) attach() {
	rn.mu.Lock()
	rn.subs++
	rn.mu.Unlock()
}

// detach drops a subscriber. When the last one leaves an unfinished
// run, a watchdog arms: if nobody reattaches within the linger window,
// the run is canceled — this is the cancel-on-disconnect contract that
// keeps a stalled or vanished reader from pinning the session, while
// still leaving a reconnecting client its resume window.
func (rn *optRun) detach() {
	rn.mu.Lock()
	rn.subs--
	if rn.subs > 0 || rn.done {
		rn.mu.Unlock()
		return
	}
	rn.gen++
	gen := rn.gen
	rn.mu.Unlock()
	time.AfterFunc(rn.linger, func() {
		rn.mu.Lock()
		abandoned := rn.gen == gen && rn.subs == 0 && !rn.done
		rn.mu.Unlock()
		if abandoned {
			rn.cancel()
		}
	})
}

// resume builds a cursor for a reattaching subscriber that last saw
// iteration lastIter; lastIter < 0 (no Last-Event-ID) replays the whole
// run including the start event. Iteration ids start at 0, so 0 means
// "I saw the first iteration", not "replay everything". Fails when the
// requested range was trimmed out of the history window — including a
// full replay of a run whose early iterations are gone.
func (rn *optRun) resume(lastIter int) (*runCursor, *apiError) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if lastIter < rn.maxDropped {
		return nil, &apiError{
			Status: http.StatusGone, Code: "history_gap",
			Message: "requested replay point trimmed from the run history window; restart the run",
		}
	}
	if lastIter < 0 {
		return &runCursor{}, nil
	}
	cur := &runCursor{sentStart: true}
	oldest := rn.totalIters - len(rn.iters)
	cur.nextOrd = rn.totalIters
	for i, ev := range rn.iters {
		if ev.id > lastIter {
			cur.nextOrd = oldest + i
			break
		}
	}
	return cur, nil
}

// collect returns every event past cur (advancing it). With nothing
// new and the run unfinished it returns the broadcast channel to wait
// on. A subscriber that fell behind the history window gets gap=true
// and must drop the stream.
func (rn *optRun) collect(cur *runCursor) (evs []recordedEvent, wait <-chan struct{}, gap bool) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if !cur.sentStart {
		evs = append(evs, rn.start)
		cur.sentStart = true
	}
	oldest := rn.totalIters - len(rn.iters)
	if cur.nextOrd < oldest {
		return nil, nil, true
	}
	for ord := cur.nextOrd; ord < rn.totalIters; ord++ {
		evs = append(evs, rn.iters[ord-oldest])
	}
	cur.nextOrd = rn.totalIters
	if rn.done && !cur.sentDone {
		evs = append(evs, rn.doneEv)
		cur.sentDone = true
	}
	if len(evs) == 0 && !rn.done {
		wait = rn.updated
	}
	return evs, wait, false
}

// runRegistry tracks at most one run per session: live runs block new
// ones (409 run_active), finished runs linger for reattachment until
// their removal timer fires.
type runRegistry struct {
	mu        sync.Mutex
	bySession map[string]*optRun
	seq       int64
}

func newRunRegistry() *runRegistry {
	return &runRegistry{bySession: make(map[string]*optRun)}
}

// insert claims the session's run slot for rn (assigning its id). A
// still-executing prior run is a conflict; a finished lingering one is
// displaced.
func (rg *runRegistry) insert(rn *optRun) *apiError {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if prior, ok := rg.bySession[rn.sessionID]; ok {
		prior.mu.Lock()
		priorDone := prior.done
		prior.mu.Unlock()
		if !priorDone {
			return &apiError{
				Status: http.StatusConflict, Code: CodeRunActive,
				Message: "an optimize run is already streaming on this session; attach with " + HeaderRunID,
				RunID:   prior.id,
			}
		}
	}
	rg.seq++
	rn.id = fmt.Sprintf("r%06d", rg.seq)
	rg.bySession[rn.sessionID] = rn
	return nil
}

// find resolves a reattach target.
func (rg *runRegistry) find(sessionID, runID string) (*optRun, *apiError) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rn, ok := rg.bySession[sessionID]
	if !ok || rn.id != runID {
		return nil, &apiError{
			Status: http.StatusNotFound, Code: "no_run",
			Message: "no such optimize run on this session (finished runs are retained only for the linger window)",
		}
	}
	return rn, nil
}

// remove drops rn if it still owns its session's slot.
func (rg *runRegistry) remove(rn *optRun) {
	rg.mu.Lock()
	if rg.bySession[rn.sessionID] == rn {
		delete(rg.bySession, rn.sessionID)
	}
	rg.mu.Unlock()
}

// marshalEvent freezes one event payload into its recorded form.
func marshalEvent(name string, id int, payload any) recordedEvent {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own wire structs; this cannot fail on them,
		// and a run must still terminate if it ever does.
		data = []byte(`{"error":"event marshal failed"}`)
	}
	return recordedEvent{name: name, id: id, data: data}
}

// launchRun leases the session, reads the start event's initial state,
// claims the run slot, retains the lease for the run and starts the
// detached optimizer goroutine. On success the returned run owns the
// retained lease and the caller's admission ticket; on failure
// ownership of the ticket stays with the caller.
func (s *Server) launchRun(r *http.Request, t *ticket, req *OptimizeRequest) (*optRun, *apiError) {
	var (
		rn             *optRun
		initObj, initW float64
	)
	err := s.mgr.Do(r.PathValue("id"), func(lease *Lease) error {
		err := lease.Session().Do(func(tx *statsize.SessionTx) error {
			initObj, initW = tx.Objective(), tx.Design().TotalWidth()
			return nil
		})
		if err != nil {
			return err
		}
		rn = &optRun{
			sessionID:  lease.ID(),
			linger:     s.cfg.RunLinger,
			history:    runHistory,
			maxDropped: -1,
			updated:    make(chan struct{}),
		}
		if aerr := s.runs.insert(rn); aerr != nil {
			return aerr
		}
		rn.lease = lease.retain()
		return nil
	})
	if err != nil {
		return nil, toAPIError(err)
	}
	rn.ticket = t

	// The run outlives the request: its context derives from the
	// server's stream context (so Shutdown cancels it), bounded by the
	// request's X-Deadline-Ms budget when one was given.
	var runCtx context.Context
	if dl, ok := r.Context().Deadline(); ok {
		runCtx, rn.cancel = context.WithDeadline(s.streamCtx, dl)
	} else {
		runCtx, rn.cancel = context.WithCancel(s.streamCtx)
	}

	rn.start = marshalEvent("start", -1, &StartEvent{
		RunID:            rn.id,
		SessionID:        rn.lease.ID(),
		Design:           rn.lease.Design(),
		Optimizer:        req.Optimizer,
		Objective:        rn.lease.ObjectiveName(),
		InitialObjective: initObj,
		InitialWidth:     initW,
	})

	s.runWG.Add(1)
	go s.executeRun(runCtx, rn, req)
	return rn, nil
}

// executeRun is the detached run body: drive the optimizer, record its
// iterations, finish with the terminal done event, then give back the
// lease and the admission slot. The history lingers for reattachment;
// the registry slot is reclaimed after the linger window.
func (s *Server) executeRun(runCtx context.Context, rn *optRun, req *OptimizeRequest) {
	defer s.runWG.Done()
	defer rn.cancel()
	defer rn.ticket.release()
	defer rn.lease.release()

	opts := []statsize.RunOption{
		statsize.OnIteration(func(rec statsize.IterRecord) {
			rn.record(marshalEvent("iter", rec.Iter, rec))
		}),
	}
	if req.MaxIterations > 0 {
		opts = append(opts, statsize.MaxIterations(req.MaxIterations))
	}
	if req.MaxAreaIncrease > 0 {
		opts = append(opts, statsize.MaxAreaIncrease(req.MaxAreaIncrease))
	}
	if req.MultiSize > 0 {
		opts = append(opts, statsize.MultiSize(req.MultiSize))
	}
	if obj := rn.lease.Objective(); obj != nil {
		opts = append(opts, statsize.ForObjective(obj))
	}
	res, err := s.optimize(runCtx, rn.lease.Session(), req.Optimizer, opts...)

	ev := DoneEvent{Canceled: errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)}
	if err != nil && !ev.Canceled {
		ev.Error = err.Error()
	} else if ev.Canceled {
		ev.Error = "run canceled"
	}
	if res != nil {
		ev.Iterations = res.Iterations
		ev.FinalObjective = res.FinalObjective
		ev.FinalWidth = res.FinalWidth
		ev.ImprovementPct = res.Improvement()
		ev.AreaIncreasePct = res.AreaIncrease()
		ev.ElapsedNS = res.Elapsed.Nanoseconds()
	}
	rn.finish(marshalEvent("done", -1, &ev))
	time.AfterFunc(rn.linger, func() { s.runs.remove(rn) })
}
