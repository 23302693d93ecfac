package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"statsize"
)

// TestEvictVsQueryRace hammers the lease/evict exclusion under -race:
// workers continuously open-or-attach and run what-ifs inside
// Manager.Do while a sweeper evicts as aggressively as the budgets
// allow (IdleTimeout of 1ns makes every unleased session reclaimable,
// MaxSessions below the client count forces constant cap pressure).
// The invariant: a leased session is never closed underneath its
// holder, so no what-if inside a Do callback may ever observe
// ErrSessionClosed. An open that finds the pool full, or a session
// evicted between its open and the Do, is a skip.
func TestEvictVsQueryRace(t *testing.T) {
	eng, err := statsize.New()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng, Config{
		MaxSessions: 3,
		IdleTimeout: time.Nanosecond,
	})
	defer m.CloseAll()
	ctx := context.Background()

	const (
		workers = 6
		clients = 5 // > MaxSessions so opens keep evicting
		rounds  = 25
	)
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Sweep()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var (
		wg     sync.WaitGroup
		served atomic.Int64
	)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				client := fmt.Sprintf("client-%d", (w+i)%clients)
				resp, err := m.OpenOrAttach(ctx, &OpenSessionRequest{
					Design: "c17", Client: client, Bins: 120,
				})
				if errors.Is(err, ErrPoolFull) {
					continue // every slot leased right now; acceptable
				}
				if err != nil {
					errc <- fmt.Errorf("worker %d round %d open: %w", w, i, err)
					return
				}
				err = m.Do(resp.SessionID, func(lease *Lease) error {
					_, err := lease.Session().WhatIfBatch(ctx, []statsize.Candidate{
						{Gate: 0, Width: 1.5},
						{Gate: 1, Width: 2.0},
					})
					return err
				})
				if errors.Is(err, ErrNoSession) || errors.Is(err, ErrSessionGone) {
					continue // evicted between open and Do; acceptable
				}
				if err != nil {
					// ErrSessionClosed here means eviction broke the lease
					// exclusion — the bug this test exists to catch.
					errc <- fmt.Errorf("worker %d round %d what-if: %w", w, i, err)
					return
				}
				served.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if served.Load() == 0 {
		t.Fatal("no what-if ran under a lease")
	}
	st := m.Stats()
	if st.InFlight != 0 {
		t.Fatalf("leases leaked: %+v", st)
	}
	if st.Live > m.cfg.MaxSessions {
		t.Fatalf("pool exceeded its cap: %+v", st)
	}
}

// TestWhatIfBaseMatchesDeltasUnderResize pins the what-if snapshot: a
// response's base objective and its batch's deltas come from one
// session state even while other lease holders resize the session, so
// base − objective equals delta bit for bit in every result.
func TestWhatIfBaseMatchesDeltasUnderResize(t *testing.T) {
	s, ts := newHTTP(t, Config{SweepEvery: time.Hour})
	sess := openSession(t, ts.URL, &OpenSessionRequest{Design: "c17", Client: "race", Bins: 400})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()
	whatIf := func(req *WhatIfRequest) (*WhatIfResponse, error) {
		buf, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(ts.URL+"/v1/sessions/"+sess.SessionID+"/whatif", "application/json", bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("what-if: status %d", resp.StatusCode)
		}
		var out WhatIfResponse
		return &out, json.NewDecoder(resp.Body).Decode(&out)
	}

	const (
		resizers = 4
		askers   = 4
		batches  = 500
	)
	n := int64(sess.NumGates)
	stop := make(chan struct{})
	errc := make(chan error, resizers+askers)
	var resizing, asking sync.WaitGroup
	for w := 0; w < resizers; w++ {
		resizing.Add(1)
		go func(w int) {
			defer resizing.Done()
			err := s.Manager().Do(sess.SessionID, func(lease *Lease) error {
				for i := int64(w); ; i++ {
					select {
					case <-stop:
						return nil
					default:
					}
					// Each sweep over the gates moves every gate to the
					// next of four widths, so the objective keeps moving.
					if _, err := lease.Session().Resize(context.Background(), statsize.GateID(i%n), 1+float64(i/n%4)/2); err != nil {
						return err
					}
				}
			})
			if err != nil {
				errc <- err
			}
		}(w)
	}
	var mismatches atomic.Int64
	for w := 0; w < askers; w++ {
		asking.Add(1)
		go func(w int) {
			defer asking.Done()
			for i := int64(w); i < int64(w)+batches; i++ {
				resp, err := whatIf(&WhatIfRequest{Candidates: []CandidateWire{
					{Gate: i % n, Width: 1.75},
					{Gate: (i + 3) % n, Width: 2.5},
				}})
				if err != nil {
					errc <- err
					return
				}
				for _, r := range resp.Results {
					if resp.Base-r.Objective != r.Delta {
						mismatches.Add(1)
					}
				}
			}
		}(w)
	}
	asking.Wait()
	close(stop)
	resizing.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := mismatches.Load(); got != 0 {
		t.Fatalf("%d of %d what-if results have base_objective − objective ≠ delta", got, 2*askers*batches)
	}
}
