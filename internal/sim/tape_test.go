package sim

import (
	"sync"
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/workload"
)

// tapeWorkload builds a realistic trace exercising every record type.
func tapeWorkload() *workload.Spec {
	s := workload.VDispatchSpec("tape-unit", "T", 60_000, workload.VDispatchParams{
		Classes: 5, Sites: 3, Objects: 24, TypeNoise: 0.002,
		AlternatingSites: 1, MethodWork: 30, MethodConds: 2, CondNoise: 0.005,
		MonoCalls: 1, MonoSites: 8,
	})
	return &s
}

// countingCond counts Predict calls on a delegate conditional predictor.
type countingCond struct {
	cond.Predictor
	predicts int
}

func (c *countingCond) Predict(pc uint64) bool {
	c.predicts++
	return c.Predictor.Predict(pc)
}

// TestTapeRunMatchesFullRun is the engine-split contract: a pass replayed
// through the tape must produce exactly the result of the monolithic Run,
// field for field, for every indirect predictor in the pass.
func TestTapeRunMatchesFullRun(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (cond.Predictor, []predictor.Indirect) {
		return cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{
			btb.NewIndirect(btb.Default32K()),
			core.New(core.DefaultConfig()),
		}
	}
	cp, inds := mk()
	got, err := tape.Run("hp", cp, inds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp2, inds2 := mk()
	want, err := Run(tr, cp2, inds2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result %d: tape %+v != full run %+v", i, got[i], want[i])
		}
	}
}

// TestTapeCondSimulatedOncePerKey checks the memoization: the second pass
// under the same key must never drive its conditional predictor, while a
// new key must simulate again.
func TestTapeCondSimulatedOncePerKey(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	first := &countingCond{Predictor: cond.NewBimodal(1024)}
	r1, err := tape.Run("bimodal", first, []predictor.Indirect{&stubIndirect{have: false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.predicts == 0 {
		t.Fatal("first pass did not simulate the conditional side")
	}
	second := &countingCond{Predictor: cond.NewBimodal(1024)}
	r2, err := tape.Run("bimodal", second, []predictor.Indirect{&stubIndirect{have: false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.predicts != 0 {
		t.Errorf("second pass under the same key drove its conditional predictor (%d Predict calls)", second.predicts)
	}
	if r1[0].CondMispredicts != r2[0].CondMispredicts {
		t.Errorf("cond mispredicts differ across replays: %d vs %d", r1[0].CondMispredicts, r2[0].CondMispredicts)
	}
	other := &countingCond{Predictor: cond.NewBimodal(64)}
	if _, err := tape.Run("bimodal-64", other, []predictor.Indirect{&stubIndirect{have: false}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if other.predicts == 0 {
		t.Error("new key did not simulate the conditional side")
	}
}

// TestTapeConcurrentSameKey hammers one key from many goroutines; exactly
// one conditional simulation may happen and every pass must agree.
func TestTapeConcurrentSameKey(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := make([]int64, n)
	cps := make([]*countingCond, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		cps[i] = &countingCond{Predictor: cond.NewBimodal(1024)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tape.Run("bimodal", cps[i], []predictor.Indirect{&stubIndirect{have: false}}, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res[0].CondMispredicts
		}()
	}
	wg.Wait()
	simulated := 0
	for _, cp := range cps {
		if cp.predicts > 0 {
			simulated++
		}
	}
	if simulated != 1 {
		t.Errorf("%d conditional simulations ran, want exactly 1", simulated)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("pass %d cond mispredicts %d != pass 0's %d", i, results[i], results[0])
		}
	}
}

// TestTapeEmptyKeyFallsBack checks that condKey == "" runs the full engine:
// the conditional predictor is driven and results equal Run's.
func TestTapeEmptyKeyFallsBack(t *testing.T) {
	tr := buildTrace()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingCond{Predictor: cond.NewBimodal(1024)}
	got, err := tape.Run("", cp, []predictor.Indirect{&stubIndirect{target: 0xAAAA, have: true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.predicts == 0 {
		t.Error("exclusive pass did not drive its conditional predictor")
	}
	want, err := Run(tr, cond.NewBimodal(1024), []predictor.Indirect{&stubIndirect{target: 0xAAAA, have: true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("fallback result %+v != Run result %+v", got[0], want[0])
	}
}

func TestTapeRunErrors(t *testing.T) {
	tape, err := NewTape(buildTrace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tape.Run("k", nil, []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("nil conditional predictor accepted")
	}
	if _, err := tape.Run("k", cond.NewBimodal(8), nil, Options{}); err == nil {
		t.Error("empty indirect set accepted")
	}
	if _, err := NewTape(nil); err == nil {
		t.Error("nil trace accepted")
	}
}

// TestRunSharedBuildsCondOncePerKey: a shared pass hands the tape a
// constructor, which runs once per (tape, key) — on the key's first use —
// and never for later passes that find the count memoised. Without a
// store no code salt is computed, so nothing else calls it.
func TestRunSharedBuildsCondOncePerKey(t *testing.T) {
	tr := tapeWorkload().Build()
	built := map[string]int{}
	ctor := func(key string, entries int) func() cond.Predictor {
		return func() cond.Predictor {
			built[key]++
			return cond.NewBimodal(entries)
		}
	}
	for _, tapeNo := range []int{1, 2} {
		tape, err := NewTape(tr)
		if err != nil {
			t.Fatal(err)
		}
		var first int64
		for pass := 0; pass < 3; pass++ {
			res, err := tape.RunShared("bimodal-1024", ctor("bimodal-1024", 1024), []predictor.Indirect{&stubIndirect{}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				first = res[0].CondMispredicts
			} else if res[0].CondMispredicts != first {
				t.Errorf("tape %d pass %d: cond mispredicts %d, want %d", tapeNo, pass, res[0].CondMispredicts, first)
			}
		}
		if _, err := tape.RunShared("bimodal-64", ctor("bimodal-64", 64), []predictor.Indirect{&stubIndirect{}}, Options{}); err != nil {
			t.Fatal(err)
		}
		if built["bimodal-1024"] != tapeNo || built["bimodal-64"] != tapeNo {
			t.Errorf("after %d tapes: constructors ran %v times, want once per tape and key", tapeNo, built)
		}
	}
	tape, _ := NewTape(tr)
	if _, err := tape.RunShared("", ctor("x", 8), []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("RunShared accepted an empty conditional key")
	}
	if _, err := tape.RunShared("k", nil, []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("RunShared accepted a nil constructor")
	}
}

// mapStore is an in-memory CondStore that checks the salt it is handed.
type mapStore struct {
	counts map[string]int64
	salts  map[string]uint64
	loads  int
	saves  int
}

func (s *mapStore) LoadCond(key string, salt func() (uint64, bool)) (int64, bool) {
	n, ok := s.counts[key]
	if !ok {
		return 0, false
	}
	if v, sok := salt(); !sok || v != s.salts[key] {
		return 0, false
	}
	s.loads++
	return n, true
}

func (s *mapStore) SaveCond(key string, salt func() (uint64, bool), n int64) {
	v, ok := salt()
	if !ok {
		return
	}
	s.saves++
	s.counts[key], s.salts[key] = n, v
}

var storeTestRuns int

// TestTapeCondStore: a tape with a store simulates a key only when the
// store has no count for it, and records what it simulates; a second tape
// over the same trace then builds no conditional predictor at all. The
// built-predictor Run reaches the store only for registered keys.
func TestTapeCondStore(t *testing.T) {
	tr := tapeWorkload().Build()
	store := &mapStore{counts: map[string]int64{}, salts: map[string]uint64{}}
	// Code salts are cached per process and key, so every run of this test
	// (-count) takes fresh keys.
	storeTestRuns++
	key := CondKey("bimodal-test", struct{ Entries, Run int }{1024, storeTestRuns})
	built := 0
	newCond := func() cond.Predictor { built++; return cond.NewBimodal(1024) }
	run := func() int64 {
		tape, err := NewTape(tr)
		if err != nil {
			t.Fatal(err)
		}
		tape.SetCondStore(store)
		res, err := tape.RunShared(key, newCond, []predictor.Indirect{&stubIndirect{}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].CondMispredicts
	}
	want := run()
	// One instance for the code salt (once per process and key) and one
	// for the trace.
	if built != 2 || store.saves != 1 || store.loads != 0 {
		t.Fatalf("first tape: %d constructions, %d saves, %d loads; want 2, 1, 0", built, store.saves, store.loads)
	}
	if got := run(); got != want || built != 2 || store.loads != 1 {
		t.Errorf("second tape: count %d (want %d), %d constructions (want 2), %d loads (want 1)", got, want, built, store.loads)
	}

	// Run with a built predictor: an unregistered key bypasses the store.
	tape, _ := NewTape(tr)
	tape.SetCondStore(store)
	other := CondKey("bimodal-test", struct{ Entries, Run int }{64, storeTestRuns})
	if _, err := tape.Run(other, cond.NewBimodal(64), []predictor.Indirect{&stubIndirect{}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if store.saves != 1 {
		t.Errorf("unregistered key reached the store (%d saves)", store.saves)
	}
	RegisterCond(other, func() cond.Predictor { return cond.NewBimodal(64) })
	tape, _ = NewTape(tr)
	tape.SetCondStore(store)
	cp := &countingCond{Predictor: cond.NewBimodal(64)}
	if _, err := tape.Run(other, cp, []predictor.Indirect{&stubIndirect{}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if store.saves != 2 || cp.predicts == 0 {
		t.Errorf("registered key: %d saves (want 2), %d predicts (want > 0)", store.saves, cp.predicts)
	}
}

// TestCondSaltTracksBehaviour: the code salt is a function of what the
// configuration does, so configurations that behave differently get
// different salts and the same one gets the same salt every time.
func TestCondSaltTracksBehaviour(t *testing.T) {
	a := probeDigest(cond.NewBimodal(1024))
	if b := probeDigest(cond.NewBimodal(1024)); a != b {
		t.Errorf("same configuration, different digests %x, %x", a, b)
	}
	if b := probeDigest(cond.NewBimodal(16)); a == b {
		t.Error("bimodal 1024 and 16 share a digest")
	}
	hp := cond.DefaultHPConfig()
	d := probeDigest(cond.NewHashedPerceptron(hp))
	hp.ThetaInit++
	if e := probeDigest(cond.NewHashedPerceptron(hp)); d == e {
		t.Error("hashed perceptron digest ignores ThetaInit")
	}
}
