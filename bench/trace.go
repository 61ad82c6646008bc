package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call: an operation, or a call the benchmark makes into
// one layer's public functions on that operation's inputs. Spans of one
// operation share Op; Parent is the id of the enclosing span, -1 at the top.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; spans recorded until the next call carry
// its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// do runs f inside a span called name and returns how long f took (0 from a
// nil tracer).
func (t *tracer) do(name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count       int
	total, self time.Duration
}

func (l layerStat) meanUs() float64 { return ratio(micros(l.total), float64(l.count)) }

func (t *tracer) byName() map[string]layerStat {
	out := make(map[string]layerStat)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		l := out[s.Name]
		l.count++
		l.total += time.Duration(s.End - s.Start)
		l.self += time.Duration(self[i])
		out[s.Name] = l
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
