package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"statsize/internal/server"
)

// Event is one SSE frame from an optimize stream, bytes preserved
// exactly as the daemon framed them (the golden-trace tests rebuild the
// optimizer trace bit-for-bit from these).
type Event struct {
	Name string
	ID   int // SSE id (iteration number); -1 when the frame had none
	Data []byte
}

// Optimize starts an optimizer run on the session and follows its SSE
// stream to the terminal done event, invoking onEvent (when non-nil)
// for every frame in order, duplicates already suppressed.
//
// The stream is resilient: when the connection breaks mid-run — reset,
// truncation, a stalled proxy — the client reconnects with X-Run-Id
// and Last-Event-ID and the daemon replays from the last iteration
// received. If the initial POST races a lost response into 409
// run_active, the client attaches to the run the daemon names instead
// of failing. Reconnects back off like retries and give up after
// MaxRetries consecutive attempts with no forward progress; any new
// frame resets the counter.
func (c *Client) Optimize(ctx context.Context, sessionID string, req *server.OptimizeRequest, onEvent func(Event)) (*server.DoneEvent, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: marshal optimize: %w", err)
	}
	st := &streamState{lastIter: -1}
	path := "/v1/sessions/" + sessionID + "/optimize"

	failures := 0 // consecutive attempts with no forward progress
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, lastErr)
		}
		if failures > 0 && failures > c.cfg.MaxRetries {
			return nil, fmt.Errorf("client: optimize stream gave up after %d attempts without progress: %w",
				failures, lastErr)
		}
		if failures > 0 {
			var hint time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) {
				hint = ae.RetryAfter
			}
			if !c.backoff(ctx, failures-1, hint) {
				return nil, errors.Join(ctx.Err(), lastErr)
			}
		}

		done, progressed, err := c.streamOnce(ctx, path, body, st, onEvent)
		if done != nil {
			return done, nil
		}
		if progressed {
			failures = 0
		}
		failures++
		lastErr = err

		var ae *APIError
		if errors.As(err, &ae) {
			switch {
			case ae.Code == server.CodeRunActive && ae.RunID != "" && st.runID == "":
				// Our POST's response was lost but the run started:
				// adopt it and replay from the top.
				st.runID = ae.RunID
				failures = 0
			case transient(ae):
				// Shed or transient; back off and retry.
			default:
				return nil, err // 4xx/410: definitive
			}
		}
	}
}

// streamState carries resume progress across reconnects.
type streamState struct {
	runID     string
	lastIter  int // highest iter id delivered; -1 before the first
	sentStart bool
}

// streamOnce runs one connection of the stream: POST (fresh or
// reattach), then consume frames until done or the stream breaks.
// Returns the terminal event if reached, and whether any new frame was
// delivered this attempt.
func (c *Client) streamOnce(ctx context.Context, path string, body []byte, st *streamState, onEvent func(Event)) (*server.DoneEvent, bool, error) {
	var rd io.Reader
	if st.runID == "" {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, false, fmt.Errorf("client: optimize: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	deadlineHeader(ctx, req.Header)
	if st.runID != "" {
		req.Header.Set(server.HeaderRunID, st.runID)
		if st.lastIter >= 0 {
			req.Header.Set(server.HeaderLastEventID, strconv.Itoa(st.lastIter))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("client: optimize connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, parseError(resp, nil)
	}

	progressed := false
	sc := newFrameScanner(resp.Body)
	for {
		// The body read below is already bound to ctx via the request,
		// but check directly so a cancellation between frames returns
		// the context error, not a wrapped read failure.
		if err := ctx.Err(); err != nil {
			return nil, progressed, err
		}
		ev, err := sc.next()
		if err != nil {
			// Stream broke mid-run (truncation, reset). Progress made so
			// far is kept in st; the caller reconnects.
			return nil, progressed, fmt.Errorf("client: optimize stream broke: %w", err)
		}
		switch ev.Name {
		case "start":
			var se server.StartEvent
			if err := json.Unmarshal(ev.Data, &se); err != nil {
				return nil, progressed, fmt.Errorf("client: bad start event: %w", err)
			}
			if st.runID == "" {
				st.runID = se.RunID
			}
			if st.sentStart {
				continue // replayed on full-replay reconnects; deliver once
			}
			st.sentStart = true
			progressed = true
			if onEvent != nil {
				onEvent(ev)
			}
		case "iter":
			if ev.ID <= st.lastIter {
				continue // replay overlap
			}
			st.lastIter = ev.ID
			progressed = true
			if onEvent != nil {
				onEvent(ev)
			}
		case "done":
			var de server.DoneEvent
			if err := json.Unmarshal(ev.Data, &de); err != nil {
				return nil, progressed, fmt.Errorf("client: bad done event: %w", err)
			}
			if onEvent != nil {
				onEvent(ev)
			}
			return &de, true, nil
		default:
			// Unknown event kinds are forward-compatible noise.
		}
	}
}

// frameScanner incrementally parses SSE frames off a live stream.
type frameScanner struct {
	sc *bufio.Scanner
}

func newFrameScanner(r io.Reader) *frameScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxResponseBytes)
	return &frameScanner{sc: sc}
}

// next reads one frame. io.EOF before a complete frame is an error —
// a well-formed stream ends only after its done event, so a clean EOF
// mid-frame still means truncation.
func (f *frameScanner) next() (Event, error) {
	ev := Event{ID: -1}
	got := false
	for f.sc.Scan() {
		line := f.sc.Text()
		switch {
		case line == "":
			if got {
				return ev, nil
			}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				return ev, fmt.Errorf("client: bad SSE id line %q", line)
			}
			ev.ID = n
			got = true
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
			got = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
			got = true
		}
	}
	if err := f.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.ErrUnexpectedEOF
}
