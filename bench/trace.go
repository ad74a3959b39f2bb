package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (nothing is recorded inside the program).
// Spans of one request, cell or instance share a trace id; Parent is the
// id of the enclosing span, 0 at the top.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. It is used from one
// goroutine. With on = false, do still times the call but records
// nothing, which is the untraced side of harness.trace_overhead_share.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	trace string
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// do runs fn inside a span called name and returns how long it took.
func (t *tracer) do(name string, fn func()) time.Duration {
	if !t.on {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name})
	t.stack = append(t.stack, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// selfTimes is each layer's self time in seconds: the duration of its
// spans minus the part their direct children cover. A span's layer is
// its name up to the first dot.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return out
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Note      string             `json:"note"`
	SelfTimeS map[string]float64 `json:"self_time_s"`
	Spans     []span             `json:"spans"`
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(traceFile{
		Note:      "spans wrap the benchmark's calls into each layer's public functions; times are ns since the pass began; self_time_s is per layer, span minus direct children",
		SelfTimeS: t.selfTimes(),
		Spans:     t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
