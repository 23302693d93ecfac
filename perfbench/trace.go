package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public entry points. Parent is the id of the span that
// caused it (-1 for a root); spans of one op share Op.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	open   bool
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning id -1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(now.Sub(t.t0)), open: true})
	return id
}

// end closes span id, attaching attributes given as name, value pairs.
func (t *tracer) end(id int, attrs ...any) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(now.Sub(t.t0))
	s.open = false
	setAttrs(s, attrs)
}

// record adds a span whose interval was measured by the caller, such as
// an optimizer iteration bounded by two OnIteration callbacks.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time, attrs ...any) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	setAttrs(&s, attrs)
	t.spans = append(t.spans, s)
	return id
}

func setAttrs(s *span, attrs []any) {
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64)
		}
		var v float64
		switch x := attrs[i+1].(type) {
		case int:
			v = float64(x)
		case int64:
			v = float64(x)
		case float64:
			v = x
		}
		s.Attrs[attrs[i].(string)] = v
	}
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.open {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children may nest, overlap each
// other (parallel work) or run past the parent's end; only the union of
// their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End-s.Start) - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanStat aggregates the spans of one name or one layer.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func aggregate(spans []span) (byName, byLayer map[string]spanStat) {
	self := selfTimes(spans)
	byName, byLayer = map[string]spanStat{}, map[string]spanStat{}
	for _, s := range spans {
		for _, m := range []struct {
			m   map[string]spanStat
			key string
		}{{byName, s.Name}, {byLayer, layerOf(s.Name)}} {
			st := m.m[m.key]
			st.Count++
			st.TotalMs += float64(s.dur()) / 1e6
			st.SelfMs += float64(self[s.ID]) / 1e6
			m.m[m.key] = st
		}
	}
	return byName, byLayer
}

// durationsMs lists the durations of the spans named name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// attrSum sums attribute key over the spans named name.
func attrSum(spans []span, name, key string) (sum float64, n int) {
	for _, s := range spans {
		if s.Name == name {
			if v, ok := s.Attrs[key]; ok {
				sum += v
				n++
			}
		}
	}
	return sum, n
}

// attrValues lists attribute key over the spans named name.
func attrValues(spans []span, name, key string) []float64 {
	var out []float64
	for _, s := range spans {
		if v, ok := s.Attrs[key]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Host    host                `json:"host"`
	Report  report              `json:"report"`
	Metrics map[string]metric   `json:"metrics"`
	Names   map[string]spanStat `json:"self_time_by_span"`
	Layers  map[string]spanStat `json:"self_time_by_layer"`
	Spans   []span              `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
