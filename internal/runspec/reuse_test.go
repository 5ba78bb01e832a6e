package runspec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
)

// runPlans runs the named built-ins in order on one Exec over a runner
// with the given worker count, returning every output's CSV by file name
// and the runner's memo counters.
func runPlans(t *testing.T, workers int, base int64, names ...string) (map[string][]byte, experiments.MemoStats) {
	t.Helper()
	r := experiments.NewRunner(workers)
	defer r.Close()
	x := NewExec(r, base)
	csvs := map[string][]byte{}
	for _, n := range names {
		p, ok := Builtin(n)
		if !ok {
			t.Fatalf("no built-in %q", n)
		}
		outs, err := x.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			csvs[o.File] = renderCSV(t, o)
		}
	}
	return csvs, r.MemoStats()
}

// TestExecReusesResultsAcrossPlans: fig10's all-on arm and fig11's
// assoc-64 arm are both the default BLBP, and both plans run ITTAGE, so
// fig11 after fig10 on one Exec simulates two passes fewer per workload.
// The CSVs must be byte-identical to running each plan on its own, on a
// serial and on a parallel runner.
func TestExecReusesResultsAcrossPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig10 and fig11 over the suite")
	}
	const base = 4000
	alone10, s10 := runPlans(t, 1, base, "fig10")
	alone11, s11 := runPlans(t, 1, base, "fig11")
	if s10.Hits != 0 || s11.Hits != 0 {
		t.Fatalf("single plans hit the memo: %+v, %+v", s10, s11)
	}
	workloads := int64(len(mustResolve(t, base)))
	for _, workers := range []int{1, 4} {
		both, st := runPlans(t, workers, base, "fig10", "fig11")
		for _, f := range []string{"fig10", "fig11"} {
			want := alone10[f]
			if f == "fig11" {
				want = alone11[f]
			}
			if want == nil || !bytes.Equal(both[f], want) {
				t.Errorf("workers=%d: %s.csv differs from the plan run alone", workers, f)
			}
		}
		if st.Hits != 2*workloads {
			t.Errorf("workers=%d: %d results served from the memo, want %d (assoc-64 and ittage per workload)", workers, st.Hits, 2*workloads)
		}
		if st.Stored != s10.Stored+s11.Stored-2*workloads {
			t.Errorf("workers=%d: %d results simulated, want %d", workers, st.Stored, s10.Stored+s11.Stored-2*workloads)
		}
	}
}

func mustResolve(t *testing.T, base int64) []workload.Spec {
	t.Helper()
	x := NewExec(nil, base)
	suites, err := x.resolveSuites(Suite{})
	if err != nil {
		t.Fatal(err)
	}
	return suites[0]
}

// TestCondKeysMatchCodeDriven: a plan pass over a default substrate must
// share the tape (and the persisted counts) of code-driven passes.
func TestCondKeysMatchCodeDriven(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"hashed-perceptron", experiments.CondKeyHP},
		{"tage", experiments.CondKeyTAGE},
	} {
		e, _ := lookupCond(c.name)
		cfg, err := e.config(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.CondKey(c.name, cfg); got != c.want {
			t.Errorf("%s: plan key %q, code key %q", c.name, got, c.want)
		}
	}
}

// condFromKey rebuilds the constructor of a canonical conditional key
// (sim.CondKey: substrate name, slash, merged config JSON).
func condFromKey(t *testing.T, key string) func() cond.Predictor {
	t.Helper()
	name, js, ok := strings.Cut(key, "/")
	e, found := lookupCond(name)
	if !ok || !found {
		t.Fatalf("key %q names no registered substrate", key)
	}
	cfg, err := e.config([]byte(js))
	if err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	if canon := sim.CondKey(name, cfg); canon != key {
		t.Fatalf("key %q is not canonical (want %q)", key, canon)
	}
	return func() cond.Predictor {
		cp, err := e.build(cfg)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		return cp
	}
}

// nopIndirect drives nothing: a shared pass with it alone is just the
// tape's conditional side.
type nopIndirect struct{}

func (nopIndirect) Name() string                             { return "nop" }
func (nopIndirect) Predict(uint64) (uint64, bool)            { return 0, false }
func (nopIndirect) Update(uint64, uint64)                    {}
func (nopIndirect) OnCond(uint64, bool)                      {}
func (nopIndirect) OnOther(uint64, uint64, trace.BranchType) {}
func (nopIndirect) StorageBits() int                         { return 0 }

// TestPersistedCondCountsRecompute audits a kept spill directory: every
// conditional-side count in its index under the current code salt is
// recomputed from scratch (the spill file decoded, a fresh predictor built
// from the key) and must match. Set BLBP_CONDCOUNTS_DIR to the directory;
// scripts/ci.sh runs it after a cold and a warm experiments run.
func TestPersistedCondCountsRecompute(t *testing.T) {
	dir := os.Getenv("BLBP_CONDCOUNTS_DIR")
	if dir == "" {
		t.Skip("BLBP_CONDCOUNTS_DIR not set")
	}
	counts, err := tracecache.ReadCondCounts(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.blbptrc"))
	if err != nil {
		t.Fatal(err)
	}
	spills := map[workload.Identity]string{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		h, err := trace.ReadSpillHeader(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		spills[workload.Identity{Name: h.Name, Seed: h.Seed, Instructions: h.Instructions, Fingerprint: h.Fingerprint}] = f
	}
	checked := 0
	for _, cc := range counts {
		newCond := condFromKey(t, cc.Key)
		if sim.CondSalt(cc.Key, newCond) != cc.Salt {
			t.Logf("%s: count under a stale code salt, skipped", cc.Workload.Name)
			continue
		}
		path, ok := spills[cc.Workload]
		if !ok {
			t.Errorf("%s: count without a spill file", cc.Workload.Name)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, cols, err := trace.ReadSpillColumns(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tape, err := sim.NewTapeColumns(cols)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tape.RunShared(cc.Key, newCond, []predictor.Indirect{nopIndirect{}}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].CondMispredicts != cc.Mispredicts {
			t.Errorf("%s under %s: persisted %d, recomputed %d", cc.Workload.Name, cc.Key, cc.Mispredicts, res[0].CondMispredicts)
		}
		trace.ReleaseColumns(cols)
		checked++
	}
	if checked == 0 {
		t.Fatalf("%s holds no count to check (%d entries)", dir, len(counts))
	}
	t.Logf("recomputed %d persisted counts in %s", checked, dir)
}

// TestExecMemoSeparatesCondSubstrates: the same indirect predictor over
// two conditional substrates is two results (the conditional counts
// differ), and a config override is a third; none may be served for
// another.
func TestExecMemoSeparatesCondSubstrates(t *testing.T) {
	r := experiments.NewRunner(2)
	defer r.Close()
	plan := &Plan{
		Name:  "cond-split",
		Suite: Suite{Base: 15_000, Workloads: miniWorkloads},
		Passes: []Pass{
			{Predictors: []PredictorSpec{{Type: "ittage"}}},
			{Cond: "tage", Predictors: []PredictorSpec{{Type: "ittage", Name: "ittage-tage"}}},
			{Cond: "gshare", CondConfig: []byte(`{"HistBits":8}`), Predictors: []PredictorSpec{{Type: "ittage", Name: "ittage-gshare8"}}},
			{Predictors: []PredictorSpec{{Type: "ittage", Name: "ittage-again"}}},
		},
		Outputs: []Output{{Table: "mpki"}},
	}
	if _, err := NewExec(r, 600_000).Run(plan); err != nil {
		t.Fatal(err)
	}
	n := int64(len(miniWorkloads))
	if st := r.MemoStats(); st.Stored != 3*n || st.Hits != n {
		t.Errorf("memo %+v, want %d stored (three substrates) and %d hits (the repeated default pass)", st, 3*n, n)
	}
}
