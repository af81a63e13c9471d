package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one methodology run or one tick
// share a group id.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Group  int    `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them once the run is over.
// It is single-goroutine: every traced call path runs sequentially.
type tracer struct {
	t0    time.Time
	spans []span
	group int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newGroup starts the next methodology run or tick.
func (t *tracer) newGroup() { t.group++ }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Group: t.group, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// total sums the durations of the spans named name in group.
func (t *tracer) total(name string, group int) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Group == group {
			d += s.dur()
		}
	}
	return d
}

// selfTotal sums the self time of the spans named name in group.
func (t *tracer) selfTotal(name string, group int) time.Duration {
	self := selfTimes(t.spans)
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Group == group {
			d += self[s.ID]
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover (overlapping children count once, and a
// child reaching outside its parent is clipped to it).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		ch := kids[p.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, c := range ch {
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = p.dur() - time.Duration(covered)
	}
	return self
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(t.spans), path)
	return nil
}

// spanCost measures what recording one span costs, for workloads whose
// untraced layer time cannot be observed without the spans themselves.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1))
	}
	return time.Since(start) / n
}

// pctOf expresses part as a percentage of base.
func pctOf(part, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(base)
}
