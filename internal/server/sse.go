package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// sseWriter frames server-sent events. The grammar is deliberately
// tiny and documented in DESIGN.md "Service layer":
//
//	event: start   data: StartEvent        — once, before the run
//	event: iter    data: core.IterRecord   — per sizing iteration, in
//	                                         its stable JSON encoding
//	event: done    data: DoneEvent         — once, terminal
//
// Iteration events carry an SSE id field with the iteration number so
// a broken stream can resume: the client reconnects with X-Run-Id and
// Last-Event-ID and replay continues after that iteration.
//
// Every frame is written under a per-event write deadline: a reader
// that stalls (dead TCP peer, saturated proxy) fails the write within
// the budget instead of blocking the subscriber forever — the failure
// detaches the subscriber, and the run's linger watchdog cancels an
// abandoned run. This is the mechanism that keeps a stalled reader
// from pinning an optimize run and its session lease.
type sseWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	flush  func()
	failed bool // a write failed (client gone); subsequent writes no-op
}

// sseWriteTimeout is the per-event write budget on optimize streams: a
// reader that cannot absorb one event within it is treated as
// disconnected.
const sseWriteTimeout = 15 * time.Second

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	sw := &sseWriter{w: w, rc: http.NewResponseController(w), flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

// fail marks the connection dead; every later event call is a no-op.
// Idempotent, so disconnect detection (write error, request context
// cancellation) and the final done emission compose without fuss.
func (sw *sseWriter) fail() { sw.failed = true }

// event writes one frame carrying data, an event's recorded JSON, as
// it is; id < 0 omits the id field. Write errors mark the writer
// failed — the subscriber loop detaches but stops touching the dead
// connection.
func (sw *sseWriter) event(name string, id int, data []byte) {
	if sw.failed {
		return
	}
	// Recorders and exotic ResponseWriters may not support write
	// deadlines (ErrNotSupported); the event still goes out, just
	// without the stall bound.
	if err := sw.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil &&
		!errors.Is(err, http.ErrNotSupported) {
		sw.fail()
		return
	}
	if id >= 0 {
		if _, err := fmt.Fprintf(sw.w, "id: %d\n", id); err != nil {
			sw.fail()
			return
		}
	}
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		sw.fail()
		return
	}
	sw.flush()
}

// streamRun subscribes one HTTP response to a run's event history:
// replay everything past the cursor, then follow the live run until
// its terminal done event. The subscriber detaches when the client
// goes away — request context canceled or a write failed under its
// deadline — and the deferred detach arms the run's
// cancel-on-disconnect watchdog; the run itself keeps executing
// through the linger window so the client can reconnect and resume.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, rn *optRun, cur *runCursor) {
	sw := newSSEWriter(w)
	rn.attach()
	defer rn.detach()
	for !sw.failed {
		evs, wait, gap := rn.collect(cur)
		if gap {
			// This subscriber fell behind the history window; only a
			// reconnect (which will see history_gap) can tell it.
			sw.fail()
			break
		}
		terminal := false
		for _, ev := range evs {
			sw.event(ev.name, ev.id, ev.data)
			if ev.name == "done" {
				terminal = true
			}
		}
		if terminal || sw.failed {
			break
		}
		if wait != nil {
			select {
			case <-wait:
			case <-r.Context().Done():
				sw.fail()
			}
		}
	}
}
