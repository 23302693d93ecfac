package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"statsize"
	"statsize/client"
	"statsize/internal/design"
	"statsize/internal/server"
)

// The serve workload: an in-process daemon on loopback driven by the
// resilient client in an open loop at a fixed offered rate. Four
// sessions with distinct client ids hold seeded c880 and c1908 replicas
// uploaded as inline .bench.
const (
	serveBins        = 600
	serveRate        = 30.0 // offered ops per second: 900 ops per 30 s, so the tail is p95
	serveMaxWorkers  = 2    // never more than nproc
	serveBatch       = 16
	serveWarmup      = 8  // untimed what-ifs per session before the run
	serveSampleEvery = 10 // every n-th scheduled op that is a what-if is checked
	serveGainIters   = 3  // accelerated iterations per twin behind p99_gain_pct
)

// serveSessions is the suite, one session per member, fixed so that
// seeds vary the request stream, not the circuits.
var serveSessions = []member{{"c880", 0}, {"c1908", 0}, {"c880", 1}, {"c1908", 1}}

// serveCycle is each worker's op mix as a fixed cycle of kinds (70%
// single what-if, 10% analyze, 10% 16-candidate batch, 10%
// checkpoint→resize→rollback); the seed draws sessions, gates and
// widths.
var serveCycle = []string{
	"whatif", "whatif", "analyze", "whatif", "whatif_batch",
	"whatif", "whatif", "checkpoint_resize_rollback", "whatif", "whatif",
}

type serveSession struct {
	name, bench string
	id          string
	gates       *gateStream               // owned by the session's worker once the run starts
	lastBatch   []server.WhatIfResultWire // the session's latest batch answer
}

// observed counts the successes the client saw, for the /stats check.
type observed struct {
	whatifs, resizes, checkpoints, rollbacks int64
}

// whatifSample is one HTTP what-if answer kept for the twin check.
type whatifSample struct {
	session int
	gate    int64
	width   float64
	answer  server.WhatIfResultWire
}

type serveRun struct {
	seed     int64
	circuits int64
	gain     float64
	workers  int
	dm       *daemon
	tr       *tracer
	sess     []*serveSession
	rngs     []*rand.Rand

	mu        sync.Mutex
	obs       observed
	samples   []whatifSample
	stats     *client.StatsResponse
	twins     []*statsize.Session
	twinBases []*design.Design
	twinEng   *statsize.Engine
}

func newServe(seed, circuits int64) workload {
	return &serveRun{seed: seed, circuits: circuits, workers: min(serveMaxWorkers, runtime.NumCPU())}
}

func (s *serveRun) setup(ctx context.Context, tr *tracer) error {
	s.tr = tr
	eng, err := statsize.New(statsize.WithBins(serveBins))
	if err != nil {
		return err
	}
	if s.dm, err = startDaemon(tr, eng, s.workers); err != nil {
		return err
	}
	for i, m := range serveSessions {
		nl, _, err := replica(tr, -1, eng.Library(), m.circuit, s.circuits+m.offset)
		if err != nil {
			return err
		}
		ss := &serveSession{name: fmt.Sprintf("%s+%d", m.circuit, s.circuits+m.offset)}
		if ss.bench, err = benchText(nl); err != nil {
			return err
		}
		open, err := call(ctx, tr, -1, -1, "open", func(ctx context.Context) (*client.OpenSessionResponse, error) {
			return s.dm.cl.Open(ctx, &client.OpenSessionRequest{Design: ss.name, Client: fmt.Sprintf("user-%d", i), Bench: ss.bench, Bins: serveBins})
		})
		if err != nil {
			return fmt.Errorf("open %s: %w", ss.name, err)
		}
		ss.id = open.SessionID
		ss.gates = newGateStream(rand.New(rand.NewSource(s.seed*100+int64(i))), open.NumGates)
		if _, err := s.dm.cl.Analyze(ctx, ss.id, &client.AnalyzeRequest{}); err != nil {
			return err
		}
		s.sess = append(s.sess, ss)
	}
	// Warm-up: a daemon's caches persist across requests, so the timed
	// run starts from warm sessions.
	rng := rand.New(rand.NewSource(s.seed))
	for i := range s.sess {
		for j := 0; j < serveWarmup; j++ {
			if _, err := s.whatif(ctx, -1, -1, i, rng, false); err != nil {
				return err
			}
		}
		if _, err := s.batch(ctx, -1, -1, i, rng); err != nil {
			return err
		}
	}
	for w := 0; w < s.workers; w++ {
		s.rngs = append(s.rngs, rand.New(rand.NewSource(s.seed*1000+int64(w))))
	}
	return nil
}

func (s *serveRun) run(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	start := time.Now()
	loop := &openLoop{
		start:   start,
		rate:    serveRate,
		total:   int(serveRate * deadline.Sub(start).Seconds()),
		workers: s.workers,
	}
	loop.run(ctx, func(ctx context.Context, w, i int) (int, error) {
		return s.op(ctx, w, int64(i))
	}, func(lat, late time.Duration, n int, err error) {
		rec.op(lat, n, late, err)
	})
	rec.mark()
	var err error
	if s.stats, err = s.dm.cl.Stats(ctx); err != nil {
		return err
	}
	_, _, err = s.dm.health(ctx, tr)
	return err
}

// op runs scheduled op i on worker w: a session the worker owns (session
// j belongs to worker j mod workers, so each session sees one ordered
// stream) and the next kind of the cycle. It returns the requests sent.
func (s *serveRun) op(ctx context.Context, w int, i int64) (int, error) {
	rng := s.rngs[w]
	var owned []int
	for j := range s.sess {
		if j%s.workers == w {
			owned = append(owned, j)
		}
	}
	j := owned[rng.Intn(len(owned))]
	kind := serveCycle[(i/int64(s.workers))%int64(len(serveCycle))]
	root := s.tr.begin("loadgen.op", -1, i)
	defer s.tr.end(root)
	switch kind {
	case "whatif":
		return s.whatif(ctx, root, i, j, rng, true)
	case "whatif_batch":
		return s.batch(ctx, root, i, j, rng)
	case "analyze":
		_, err := call(ctx, s.tr, root, i, "analyze", func(ctx context.Context) (*client.AnalyzeResponse, error) {
			return s.dm.cl.Analyze(ctx, s.sess[j].id, &client.AnalyzeRequest{Percentiles: []float64{0.5, 0.9, 0.99}})
		})
		return 1, err
	default:
		return s.commitRollback(ctx, root, i, j, rng)
	}
}

func (s *serveRun) whatif(ctx context.Context, root int, op int64, j int, rng *rand.Rand, sample bool) (int, error) {
	ss := s.sess[j]
	g, w := int64(ss.gates.gate()), 1+0.5*float64(1+rng.Intn(4))
	resp, err := call(ctx, s.tr, root, op, "whatif", func(ctx context.Context) (*client.WhatIfResponse, error) {
		return s.dm.cl.WhatIf(ctx, ss.id, &client.WhatIfRequest{Gate: &g, Width: &w})
	})
	if err != nil {
		return 1, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.whatifs++
	if sample && (op/int64(s.workers))%serveSampleEvery == 0 && len(resp.Results) == 1 {
		s.samples = append(s.samples, whatifSample{session: j, gate: g, width: w, answer: resp.Results[0]})
	}
	return 1, nil
}

func (s *serveRun) batch(ctx context.Context, root int, op int64, j int, rng *rand.Rand) (int, error) {
	ss := s.sess[j]
	cands := make([]client.CandidateWire, serveBatch)
	for k := range cands {
		cands[k] = client.CandidateWire{Gate: int64(ss.gates.gate()), Width: 1 + 0.5*float64(1+rng.Intn(4))}
	}
	resp, err := call(ctx, s.tr, root, op, "whatif_batch", func(ctx context.Context) (*client.WhatIfResponse, error) {
		return s.dm.cl.WhatIf(ctx, ss.id, &client.WhatIfRequest{Candidates: cands})
	})
	if err != nil {
		return 1, err
	}
	ss.lastBatch = resp.Results
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.whatifs += int64(len(resp.Results))
	return 1, nil
}

// commitRollback commits the session's most improving batch candidate
// (a random move before any batch improves) between a checkpoint and a
// rollback, so the session ends where it started.
func (s *serveRun) commitRollback(ctx context.Context, root int, op int64, j int, rng *rand.Rand) (int, error) {
	ss := s.sess[j]
	g, w := int64(ss.gates.gate()), 1.5
	best := 0.0
	for _, r := range ss.lastBatch {
		if r.Delta > best {
			g, w, best = r.Gate, r.Width, r.Delta
		}
	}
	if _, err := call(ctx, s.tr, root, op, "checkpoint", func(ctx context.Context) (*client.CheckpointResponse, error) {
		return s.dm.cl.Checkpoint(ctx, ss.id)
	}); err != nil {
		return 3, err
	}
	_, err := call(ctx, s.tr, root, op, "resize", func(ctx context.Context) (*client.ResizeResponse, error) {
		return s.dm.cl.Resize(ctx, ss.id, &client.ResizeRequest{Gate: g, Width: w})
	})
	_, rbErr := call(ctx, s.tr, root, op, "rollback", func(ctx context.Context) (*client.CheckpointResponse, error) {
		return s.dm.cl.Rollback(ctx, ss.id)
	})
	if err != nil {
		return 3, err
	}
	if rbErr != nil {
		return 3, rbErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.checkpoints++
	s.obs.resizes++
	s.obs.rollbacks++
	return 3, nil
}

func (s *serveRun) check(ctx context.Context) error {
	if err := checkStats(s.stats, s.obs, len(s.sess)); err != nil {
		return err
	}
	eng, err := statsize.New(statsize.WithBins(serveBins))
	if err != nil {
		return err
	}
	s.twinEng = eng
	for _, ss := range s.sess {
		d, err := eng.LoadBench(strings.NewReader(ss.bench), ss.name)
		if err != nil {
			return err
		}
		tw, err := openSession(ctx, s.tr, -1, eng, d)
		if err != nil {
			return err
		}
		s.twins = append(s.twins, tw)
		s.twinBases = append(s.twinBases, d)
	}
	answers := make([]statsize.WhatIfResult, len(s.samples))
	for i, smp := range s.samples {
		if answers[i], err = s.twins[smp.session].WhatIf(ctx, statsize.GateID(smp.gate), smp.width); err != nil {
			return err
		}
	}
	if err := checkTwin(s.samples, answers); err != nil {
		return err
	}
	var gains []float64
	for _, tw := range s.twins {
		g, err := sizingGain(ctx, eng, tw, serveGainIters)
		if err != nil {
			return err
		}
		gains = append(gains, g)
	}
	s.gain = mean(gains)
	return nil
}

// checkStats requires the daemon's /stats counters to equal the
// successes the client observed.
func checkStats(st *client.StatsResponse, obs observed, sessions int) error {
	if st == nil {
		return fmt.Errorf("no /stats snapshot")
	}
	e := st.Engine
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sessions_opened", e.SessionsOpened, int64(sessions)},
		{"whatifs_served", e.WhatIfsServed, obs.whatifs},
		{"resizes_committed", e.ResizesCommitted, obs.resizes},
		{"checkpoints", e.Checkpoints, obs.checkpoints},
		{"rollbacks", e.Rollbacks, obs.rollbacks},
	} {
		if c.got != c.want {
			return fmt.Errorf("/stats %s = %d, client observed %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// checkTwin requires every sampled HTTP what-if answer to equal the
// in-process twin session's answer bit for bit.
func checkTwin(samples []whatifSample, twin []statsize.WhatIfResult) error {
	if len(samples) == 0 {
		return fmt.Errorf("no what-if answer was sampled")
	}
	for i, smp := range samples {
		a, t := smp.answer, twin[i]
		if math.Float64bits(a.Objective) != math.Float64bits(t.Objective) ||
			math.Float64bits(a.Delta) != math.Float64bits(t.Delta) ||
			a.NodesVisited != t.NodesVisited || a.Gate != int64(t.Gate) {
			return fmt.Errorf("session %d gate %d width %v: HTTP answered %+v, in-process twin %+v",
				smp.session, smp.gate, smp.width, a, t)
		}
	}
	return nil
}

func (s *serveRun) probe(ctx context.Context, tr *tracer) error {
	if len(s.twins) == 0 {
		return fmt.Errorf("no twin session to probe")
	}
	return probeLayers(ctx, tr, s.twinEng, s.twins[1], rand.New(rand.NewSource(s.seed)))
}

// gainPct is the mean p99 reduction serveGainIters accelerated
// iterations reach on each session's circuit (on the twins), fixed by
// the circuits.
func (s *serveRun) gainPct() float64 { return s.gain }

// cacheHitRatio reads the twins' memos: the daemon's own designs are
// private to it.
func (s *serveRun) cacheHitRatio() float64 { return hitRatio(s.twinBases...) }

func (s *serveRun) facts() map[string]any {
	names := make([]string, len(s.sess))
	for i, ss := range s.sess {
		names[i] = ss.name
	}
	return map[string]any{
		"sessions":          names,
		"bins":              serveBins,
		"objective":         "p99",
		"loop":              "open",
		"offered_ops_per_s": serveRate,
		"workers":           s.workers,
		"connections":       s.workers,
		"op_cycle":          serveCycle,
		"gain_iters":        serveGainIters,
		"batch":             serveBatch,
	}
}

func (s *serveRun) close() {
	for _, t := range s.twins {
		t.Close()
	}
	if s.dm != nil {
		s.dm.close()
	}
}
