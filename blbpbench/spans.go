package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the traced run around
// the call site in this benchmark (the simulator itself carries no tracing).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer records properly nested spans in memory; WriteFile writes them
// out once the traced run is over.
type Tracer struct {
	run   string
	t0    time.Time
	spans []Span
	open  []int
}

// NewTracer returns a tracer whose spans all carry the run id.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now()}
}

// Start opens a span as a child of the innermost open span.
func (t *Tracer) Start(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("blbpbench: span %d ended out of order", id))
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:n-1]
}

// Rename sets a span's name once the call has shown what it did (a trace
// cache Get either generated or decoded).
func (t *Tracer) Rename(id int, name string) { t.spans[id].Name = name }

// Duration returns span id's wall time.
func (t *Tracer) Duration(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
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
	return f.Close()
}

// SelfTimes returns, per span name, the summed self time of every span of
// that name: its duration minus the part of its interval that its direct
// children cover. Children are clipped to their parent's interval and
// overlapping children count once, so the self times of a span tree sum
// to the wall time of its roots.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered returns how much of [start, end) the union of the spans covers.
func covered(start, end int64, spans []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.Start, start), min(s.End, end)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	return total + cur.hi - cur.lo
}
