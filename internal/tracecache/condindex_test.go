package tracecache

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
)

// nopIndirect is an indirect predictor that does nothing: a shared pass
// with it alone exercises just the tape's conditional side.
type nopIndirect struct{}

func (nopIndirect) Name() string                             { return "nop" }
func (nopIndirect) Predict(uint64) (uint64, bool)            { return 0, false }
func (nopIndirect) Update(uint64, uint64)                    {}
func (nopIndirect) OnCond(uint64, bool)                      {}
func (nopIndirect) OnOther(uint64, uint64, trace.BranchType) {}
func (nopIndirect) StorageBits() int                         { return 0 }

var (
	testCondKey = sim.CondKey("bimodal", struct{ Entries int }{4096})
	testNewCond = func() cond.Predictor { return cond.NewBimodal(4096) }
)

// condRun opens a cache on dir, runs one shared pass over spec's tape and
// closes the cache, returning the conditional count the pass reported and
// the cache's counters.
func condRun(t *testing.T, dir string) (int64, Stats) {
	t.Helper()
	c := New(Config{SpillDir: dir, KeepSpill: true})
	tape, err := c.Get(testSpec("cond-a", 20_000)).Tape()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tape.RunShared(testCondKey, testNewCond, []predictor.Indirect{nopIndirect{}}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	return res[0].CondMispredicts, c.Stats()
}

// TestCondCountsPersistAcrossCaches: the first cache over a spill directory
// simulates the conditional side and writes its count at Close; the next
// one decodes the trace and loads the count, simulating nothing.
func TestCondCountsPersistAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	want, cold := condRun(t, dir)
	if cold.CondSims != 1 || cold.CondWrites != 1 || cold.CondLoads != 0 {
		t.Fatalf("cold run: %+v, want 1 simulation, 1 write, 0 loads", cold)
	}
	counts, err := ReadCondCounts(dir)
	if err != nil || len(counts) != 1 || counts[0].Key != testCondKey || counts[0].Mispredicts != want {
		t.Fatalf("index after the cold run: %+v, %v", counts, err)
	}
	got, warm := condRun(t, dir)
	if got != want {
		t.Errorf("warm count %d, cold %d", got, want)
	}
	if warm.CondSims != 0 || warm.CondLoads != 1 || warm.CondWrites != 0 || warm.Builds != 0 {
		t.Errorf("warm run: %+v, want 0 simulations, 1 load, 0 writes, 0 builds", warm)
	}
}

// TestCondIndexDamageRecomputes: whatever is wrong with the index, the
// count is recomputed and the stored one never served. Every damaged file
// below carries a wrong count, so serving it would show. None of it is a
// spill error.
func TestCondIndexDamageRecomputes(t *testing.T) {
	dir := t.TempDir()
	want, _ := condRun(t, dir)
	counts, err := ReadCondCounts(dir)
	if err != nil || len(counts) != 1 {
		t.Fatalf("index: %+v, %v", counts, err)
	}
	good := counts[0]
	wrong := func(edit func(*CondCount)) []byte {
		cc := good
		cc.Mispredicts = want + 12345
		edit(&cc)
		return encodeCondCounts([]CondCount{cc})
	}
	valid := wrong(func(*CondCount) {})
	cases := []struct {
		name    string
		data    []byte // nil: no index file
		rejects int64
	}{
		{"missing", nil, 0},
		{"empty", []byte{}, 1},
		{"truncated", valid[:len(valid)-5], 1},
		{"header only", valid[:8], 1},
		{"bit-flipped count", flip(valid, len(valid)-9), 1},
		{"bit-flipped key", flip(valid, 60), 1},
		{"bit-flipped checksum", flip(valid, len(valid)-1), 1},
		{"wrong salt", wrong(func(cc *CondCount) { cc.Salt ^= 1 }), 1},
		{"wrong fingerprint", wrong(func(cc *CondCount) { cc.Workload.Fingerprint ^= 1 }), 0},
		{"wrong cond key", wrong(func(cc *CondCount) { cc.Key += " " }), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, CondIndexFile)
			os.Remove(path)
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, st := condRun(t, dir)
			if got != want {
				t.Errorf("count %d served, want the recomputed %d", got, want)
			}
			if st.CondSims != 1 || st.CondLoads != 0 || st.CondMisses != 1 || st.CondRejects != tc.rejects {
				t.Errorf("counters %+v, want 1 simulation, 0 loads, 1 miss, %d rejects", st, tc.rejects)
			}
			if st.SpillErrors != 0 || st.Builds != 0 {
				t.Errorf("index damage cost %d spill errors and %d builds, want none", st.SpillErrors, st.Builds)
			}
			// Close rewrote the index with the recomputed count.
			if cc, err := ReadCondCounts(dir); err != nil || len(cc) == 0 {
				t.Errorf("index not rewritten: %v", err)
			}
		})
	}
	// The control: the same wrong count under the right identity, key and
	// salt is served, so the cases above really were refused.
	if err := os.WriteFile(filepath.Join(dir, CondIndexFile), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, st := condRun(t, dir); got != want+12345 || st.CondLoads != 1 {
		t.Errorf("control: count %d with %d loads, want the stored %d served", got, st.CondLoads, want+12345)
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}

// TestCondCountsNeedSpilledTrace: a count on disk is served only to a trace
// decoded from a spill file. A trace rebuilt by the generator (its spill
// file was lost) may differ from the one the count was taken on, so it is
// recomputed.
func TestCondCountsNeedSpilledTrace(t *testing.T) {
	dir := t.TempDir()
	want, _ := condRun(t, dir)
	spills, _ := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	for _, p := range spills {
		os.Remove(p)
	}
	got, st := condRun(t, dir)
	if got != want || st.Builds != 1 || st.CondSims != 1 || st.CondLoads != 0 {
		t.Errorf("rebuilt trace: count %d (want %d), %+v; want 1 build, 1 simulation, 0 loads", got, want, st)
	}
}

// TestCondIndexRemovedWithoutKeepSpill: a cache that removes its spill
// files at Close removes the index that describes them too.
func TestCondIndexRemovedWithoutKeepSpill(t *testing.T) {
	dir := t.TempDir()
	condRun(t, dir)
	c := New(Config{SpillDir: dir})
	c.Close()
	if _, err := ReadCondCounts(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("index after a non-keeping Close: %v, want it removed", err)
	}
}

// TestCondCountsConcurrent drives the index from many goroutines at once
// (several tapes, two keys, repeated passes): each (trace, key) is
// simulated once, written once, and served to a later cache.
func TestCondCountsConcurrent(t *testing.T) {
	dir := t.TempDir()
	specs := []string{"cc-a", "cc-b", "cc-c"}
	keys := []string{testCondKey, sim.CondKey("bimodal", struct{ Entries int }{64})}
	ctors := []func() cond.Predictor{testNewCond, func() cond.Predictor { return cond.NewBimodal(64) }}
	run := func() (map[string]int64, Stats) {
		c := New(Config{SpillDir: dir, KeepSpill: true})
		var mu sync.Mutex
		got := map[string]int64{}
		var wg sync.WaitGroup
		for _, name := range specs {
			for k := range keys {
				for rep := 0; rep < 3; rep++ {
					wg.Add(1)
					go func(name string, k int) {
						defer wg.Done()
						tape, err := c.Get(testSpec(name, 8_000)).Tape()
						if err != nil {
							t.Error(err)
							return
						}
						res, err := tape.RunShared(keys[k], ctors[k], []predictor.Indirect{nopIndirect{}}, sim.Options{})
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						got[name+keys[k]] = res[0].CondMispredicts
						mu.Unlock()
					}(name, k)
				}
			}
		}
		wg.Wait()
		c.Close()
		return got, c.Stats()
	}
	cold, cs := run()
	n := int64(len(specs) * len(keys))
	if cs.CondSims != n || cs.CondWrites != n {
		t.Errorf("cold: %+v, want %d simulations and writes", cs, n)
	}
	warm, ws := run()
	if ws.CondSims != 0 || ws.CondLoads != n {
		t.Errorf("warm: %+v, want 0 simulations and %d loads", ws, n)
	}
	for k, v := range cold {
		if warm[k] != v {
			t.Errorf("%s: warm %d, cold %d", k, warm[k], v)
		}
	}
}
