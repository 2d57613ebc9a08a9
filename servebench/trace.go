package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/structure"
)

// The traced run records spans from the benchmark's own code around
// each call into a layer's public functions.  Spans live in memory
// while the run executes and are written out once at the end.  The
// traced run is single-threaded, so a stack gives every span its
// parent.

// span is one recorded interval.  Roots are either "op" spans (one per
// traced operation; layer shares are computed over them) or "probe"
// spans (layer calls measured in isolation, outside any op).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for roots
	Op     int    `json:"op"`
}

type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open span.  An "op" or
// "probe" root starts a new operation id.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.op++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// layerTimes returns, per span name, the summed self time (duration
// minus the time its children cover) over spans below roots named
// root, plus the summed duration of those roots and their number.
func (t *tracer) layerTimes(root string) (self map[string]time.Duration, total time.Duration, n int) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rootOf := func(i int) int {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return i
	}
	self = map[string]time.Duration{}
	for i, s := range t.spans {
		r := rootOf(i)
		if t.spans[r].Name != root {
			continue
		}
		d := time.Duration(s.End-s.Start) - child[i]
		if i == r {
			total += time.Duration(s.End - s.Start)
			n++
		}
		self[s.Name] += d
	}
	return self, total, n
}

// spanTimes returns the durations of every span with the given name.
func (t *tracer) spanTimes(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans (one JSON object per line) and the counts
// (a final {"counts": ...} line) under dir.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		fh.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// shareLines renders each layer's self time as a share of op time,
// largest first.
func (t *tracer) shareLines(workload string) []string {
	self, total, n := t.layerTimes("op")
	if n == 0 || total <= 0 {
		return nil
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("%s traced: %d ops, %.3f ms per op", workload, n, ms(total)/float64(n))}
	for _, k := range names {
		out = append(out, fmt.Sprintf("  %-28s self %10.3f ms/op  %5.1f%% of op time",
			k, ms(self[k])/float64(n), 100*float64(self[k])/float64(total)))
	}
	return out
}

// finishTrace adds the traced op time, writes the spans and counts, and
// renders the per-layer metrics and share lines.
func finishTrace(tr *tracer, res *result, cfg config, workload string, vals map[string]float64) error {
	_, total, n := tr.layerTimes("op")
	if n > 0 {
		vals["trace.op_ms"] = ms(total) / float64(n)
	}
	vals["engine.arena_chunks_live"] = float64(engine.ArenaChunksLive())
	res.lines = append(res.lines, tr.shareLines(workload)...)
	res.line("%s: traced op %.3f ms vs untraced op %.3f ms (difference: tracing overhead, HTTP share and the traced pass's extra calls)",
		workload, vals["trace.op_ms"], vals["trace.untraced_op_ms"])
	if err := tr.write(cfg.spanPath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.line("spans and counts written to %s", cfg.spanPath)
	var err error
	res.layer, err = layerMetrics(vals)
	return err
}

// probeParse parses each fact text under one "probe" root, a
// "parser.facts" span per text, and returns the structures and the
// parse time per fact.
func (t *tracer) probeParse(texts []string, facts int) ([]*structure.Structure, float64, error) {
	bs := make([]*structure.Structure, len(texts))
	var err error
	t.do("probe", func() {
		for i, text := range texts {
			t.do("parser.facts", func() { bs[i], err = parser.ParseStructure(text, nil) })
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	var d time.Duration
	for _, s := range t.spanTimes("parser.facts") {
		d += s
	}
	return bs, us(d) / float64(facts), nil
}
