package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: the union counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "a", Start: 200, End: 207}, // a second root of the same name
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"run": 100 - (50 - 10) - (100 - 90),
		"a":   (30 - 10 - 10) + 7,
		"b":   30,
		"c":   30,
		"d":   10,
	}
	if len(got) != len(want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestSelfTimesSumToRootWall(t *testing.T) {
	// Properly nested, non-overlapping spans: the self times partition
	// the root's wall time.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "setup", Start: 5, End: 400},
		{ID: 2, Parent: 1, Name: "acquire", Start: 10, End: 200},
		{ID: 3, Parent: 1, Name: "tape", Start: 200, End: 390},
		{ID: 4, Parent: 0, Name: "replay", Start: 400, End: 990},
	}
	var sum time.Duration
	for _, d := range SelfTimes(spans) {
		sum += d
	}
	if sum != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer("r1")
	root := tr.Start("run")
	a := tr.Start("a")
	b := tr.Start("b")
	tr.End(b)
	tr.Rename(a, "a2")
	tr.End(a)
	c := tr.Start("c")
	tr.End(c)
	tr.End(root)
	spans := tr.Spans()
	parents := map[string]int{"run": -1, "a2": root, "b": a, "c": root}
	for _, s := range spans {
		if s.Run != "r1" {
			t.Errorf("span %s has run id %q", s.Name, s.Run)
		}
		if s.Parent != parents[s.Name] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, parents[s.Name])
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ending a span that is not innermost did not panic")
		}
	}()
	x := tr.Start("x")
	tr.Start("y")
	tr.End(x)
}
