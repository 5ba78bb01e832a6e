package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// testRunner returns a Runner closed when the test ends.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(0)
	t.Cleanup(r.Close)
	return r
}

// miniSuite returns a small but diverse workload set for fast integration
// tests.
func miniSuite(instr int64) []workload.Spec {
	return []workload.Spec{
		workload.InterpreterSpec("mini-interp", "T", instr, workload.InterpreterParams{
			Opcodes: 12, ProgramLen: 32, Work: 30, CondPerHandler: 1,
			CondNoise: 0.005, DispatchNoise: 0.002, MonoCalls: 1, MonoSites: 10,
		}),
		workload.VDispatchSpec("mini-vdisp", "T", instr, workload.VDispatchParams{
			Classes: 4, Sites: 3, Objects: 16, TypeNoise: 0.002,
			AlternatingSites: 1, MethodWork: 30, MethodConds: 1, CondNoise: 0.005,
		}),
		workload.SwitcherSpec("mini-switch", "T", instr, workload.SwitcherParams{
			Tokens: 8, TransitionNoise: 0.004, CaseWork: 30, CaseConds: 1, CondNoise: 0.005,
		}),
	}
}

func TestRunSuiteStandardPasses(t *testing.T) {
	rows, err := RunSuite(miniSuite(120_000), StandardPasses(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		for _, p := range []string{NameBTB, NameVPC, NameITTAGE, NameBLBP} {
			res, ok := r.Results[p]
			if !ok {
				t.Fatalf("%s: missing predictor %s", r.Spec.Name, p)
			}
			if res.IndirectBranches == 0 {
				t.Errorf("%s/%s: no indirect branches simulated", r.Spec.Name, p)
			}
		}
		// On these learnable workloads the history predictors must beat
		// the BTB baseline decisively.
		if r.MPKI(NameBLBP) >= r.MPKI(NameBTB) {
			t.Errorf("%s: BLBP (%.3f) not better than BTB (%.3f)",
				r.Spec.Name, r.MPKI(NameBLBP), r.MPKI(NameBTB))
		}
	}
}

func TestRunSuiteErrors(t *testing.T) {
	if _, err := RunSuite(nil, StandardPasses(), 0); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := RunSuite(miniSuite(1000), nil, 0); err == nil {
		t.Error("no passes accepted")
	}
	// Duplicate predictor names across passes must be rejected.
	dup := []Pass{
		Exclusive(func() (cond.Predictor, []predictor.Indirect) {
			return cond.NewBimodal(64), []predictor.Indirect{core.New(core.DefaultConfig())}
		}),
		Exclusive(func() (cond.Predictor, []predictor.Indirect) {
			return cond.NewBimodal(64), []predictor.Indirect{core.New(core.DefaultConfig())}
		}),
	}
	if _, err := RunSuite(miniSuite(5_000), dup, 1); err == nil {
		t.Error("duplicate predictor names accepted")
	}
}

func TestRunSuiteDeterministicAcrossParallelism(t *testing.T) {
	specs := miniSuite(60_000)
	seq, err := RunSuite(specs, StandardPasses(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuite(specs, StandardPasses(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for name, r := range seq[i].Results {
			if par[i].Results[name] != r {
				t.Errorf("%s/%s differs between parallel and sequential runs", specs[i].Name, name)
			}
		}
	}
}

func TestRenameWrapsPredictor(t *testing.T) {
	p := Rename(core.New(core.DefaultConfig()), "custom-name")
	if p.Name() != "custom-name" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Update(0x10, 0x5000)
	if tgt, ok := p.Predict(0x10); !ok || tgt != 0x5000 {
		t.Error("renamed predictor does not delegate")
	}
}

// TestRenameKeepsSpanFeeder: a renamed predictor must keep its segment fast
// path. Without it tape replay feeds every renamed BLBP and ITTAGE (the
// Fig. 10/11 arms) one interface call per conditional record.
func TestRenameKeepsSpanFeeder(t *testing.T) {
	for _, p := range []predictor.Indirect{core.New(core.DefaultConfig()), ittage.New(ittage.DefaultConfig())} {
		if _, ok := p.(predictor.SpanFeeder); !ok {
			t.Fatalf("%s does not implement SpanFeeder itself", p.Name())
		}
		r := Rename(p, "renamed-"+p.Name())
		if _, ok := r.(predictor.SpanFeeder); !ok {
			t.Errorf("Rename(%s) hides predictor.SpanFeeder", p.Name())
		}
		if r.Name() != "renamed-"+p.Name() {
			t.Errorf("Name = %q", r.Name())
		}
	}
	// A predictor without the fast path must not gain one.
	if _, ok := Rename(stubNoSpans{}, "x").(predictor.SpanFeeder); ok {
		t.Error("Rename added SpanFeeder to a predictor without it")
	}
}

// stubNoSpans is an indirect predictor without the span fast path.
type stubNoSpans struct{}

func (stubNoSpans) Name() string                             { return "stub" }
func (stubNoSpans) Predict(uint64) (uint64, bool)            { return 0, false }
func (stubNoSpans) Update(uint64, uint64)                    {}
func (stubNoSpans) OnCond(uint64, bool)                      {}
func (stubNoSpans) OnOther(uint64, uint64, trace.BranchType) {}
func (stubNoSpans) StorageBits() int                         { return 0 }

func TestFig1RowsSortedByIndirect(t *testing.T) {
	tb, rows := testRunner(t).Fig1(miniSuite(60_000))
	if tb.Rows() != 3 || len(rows) != 3 {
		t.Fatalf("rows = %d/%d, want 3", tb.Rows(), len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Indirect < rows[i-1].Indirect {
			t.Error("Fig1 rows not sorted by indirect prevalence")
		}
	}
	for _, r := range rows {
		if r.PerKilo[trace.CondDirect] <= 0 {
			t.Errorf("%s: no conditional branches", r.Workload)
		}
	}
}

func TestFig6Bounds(t *testing.T) {
	_, rows := testRunner(t).Fig6(miniSuite(60_000))
	for _, r := range rows {
		if r.PolyPct < 0 || r.PolyPct > 100 {
			t.Errorf("%s: PolyPct = %v out of range", r.Workload, r.PolyPct)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PolyPct < rows[i-1].PolyPct {
			t.Error("Fig6 rows not sorted")
		}
	}
}

func TestFig7CCDFMonotone(t *testing.T) {
	_, pts := testRunner(t).Fig7(miniSuite(60_000), 16)
	if len(pts) != 16 {
		t.Fatalf("got %d points, want 16", len(pts))
	}
	if pts[0].PctAtLeast < 99.99 {
		t.Errorf("P(targets >= 1) = %v, want 100", pts[0].PctAtLeast)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PctAtLeast > pts[i-1].PctAtLeast+1e-9 {
			t.Error("CCDF not non-increasing")
		}
	}
}

func TestOverallAndDerivedFigures(t *testing.T) {
	rows, err := testRunner(t).RunSuite(miniSuite(120_000), StandardPasses())
	if err != nil {
		t.Fatal(err)
	}
	data := OverallData{Rows: rows, Predictors: []string{NameBTB, NameVPC, NameITTAGE, NameBLBP}}
	tb := OverallTable(data)
	if tb.Rows() != 4 {
		t.Errorf("overall table rows = %d, want 4", tb.Rows())
	}
	// The headline ordering on learnable workloads: BTB worst by far.
	if data.Mean(NameBTB) < 4*data.Mean(NameBLBP) {
		t.Errorf("BTB mean %.3f not clearly worse than BLBP %.3f", data.Mean(NameBTB), data.Mean(NameBLBP))
	}
	f8 := Fig8(data)
	if f8.Rows() != 3 {
		t.Errorf("fig8 rows = %d, want 3", f8.Rows())
	}
	f9 := Fig9(data)
	if f9.Rows() != 3 {
		t.Errorf("fig9 rows = %d, want 3", f9.Rows())
	}
	var buf bytes.Buffer
	if err := f9.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mini-") {
		t.Error("fig9 output missing workload names")
	}
}

func TestAblationVariantsCoverPaperArms(t *testing.T) {
	vs := AblationVariants()
	if len(vs) != 12 {
		t.Fatalf("got %d variants, want 12", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
		if err := v.Config.Validate(); err != nil {
			t.Errorf("variant %s: invalid config: %v", v.Name, err)
		}
	}
	for _, want := range []string{"all-off", "all-on", "only-local", "no-intervals", "no-selective"} {
		if !names[want] {
			t.Errorf("missing ablation arm %q", want)
		}
	}
	// all-off must disable everything; all-on must enable everything.
	for _, v := range vs {
		switch v.Name {
		case "all-off":
			if v.Config.UseLocal || v.Config.UseIntervals || v.Config.UseTransfer || v.Config.UseAdaptiveTheta || v.Config.UseSelective {
				t.Error("all-off leaves an optimization on")
			}
		case "all-on":
			if !(v.Config.UseLocal && v.Config.UseIntervals && v.Config.UseTransfer && v.Config.UseAdaptiveTheta && v.Config.UseSelective) {
				t.Error("all-on leaves an optimization off")
			}
		}
	}
}

// meanOf is the suite-mean MPKI of one predictor over the rows.
func meanOf(rows []WorkloadResult, name string) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.MPKI(name)
	}
	return sum / float64(len(rows))
}

func TestFig10PassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	passes := append(BLBPVariantsPasses(AblationVariants()), ITTAGEPass())
	rows, err := testRunner(t).RunSuite(miniSuite(80_000), passes)
	if err != nil {
		t.Fatal(err)
	}
	if meanOf(rows, "all-on") >= meanOf(rows, "all-off") {
		t.Errorf("all-on (%.3f) not better than all-off (%.3f)",
			meanOf(rows, "all-on"), meanOf(rows, "all-off"))
	}
}

func TestAssocVariantsGeometry(t *testing.T) {
	vs := AssocVariants(nil)
	if len(vs) != 5 {
		t.Fatalf("got %d variants, want 5", len(vs))
	}
	for _, v := range vs {
		if v.Config.IBTB.Sets*v.Config.IBTB.Assoc != 4096 {
			t.Errorf("%s: entries = %d, want 4096", v.Name, v.Config.IBTB.Sets*v.Config.IBTB.Assoc)
		}
	}
}

func TestFig11PassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	// Use a workload with many polymorphic branches so associativity has
	// something to do.
	specs := []workload.Spec{
		workload.VDispatchSpec("assoc-load", "T", 150_000, workload.VDispatchParams{
			Classes: 12, Sites: 24, Objects: 96, MethodWork: 20, MethodConds: 1,
		}),
	}
	passes := append(BLBPVariantsPasses(AssocVariants(nil)), ITTAGEPass())
	rows, err := testRunner(t).RunSuite(specs, passes)
	if err != nil {
		t.Fatal(err)
	}
	// Higher associativity must not be dramatically worse than lower.
	if meanOf(rows, "assoc-64") > meanOf(rows, "assoc-4")*1.5 {
		t.Errorf("assoc-64 (%.3f) much worse than assoc-4 (%.3f)",
			meanOf(rows, "assoc-64"), meanOf(rows, "assoc-4"))
	}
}

func TestBudgetsAndTables(t *testing.T) {
	budgets := Budgets()
	if len(budgets) != 4 {
		t.Fatalf("got %d budgets", len(budgets))
	}
	for _, b := range budgets {
		if b.Bits <= 0 {
			t.Errorf("%s: non-positive bits", b.Predictor)
		}
	}
	// BLBP and ITTAGE must be within the same iso-budget class (the
	// paper's central comparison) — within 25% of each other.
	var blbpBits, ittageBits int
	for _, b := range budgets {
		switch b.Predictor {
		case NameBLBP:
			blbpBits = b.Bits
		case NameITTAGE:
			ittageBits = b.Bits
		}
	}
	ratio := float64(blbpBits) / float64(ittageBits)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("BLBP/ITTAGE budget ratio = %.2f, want iso-budget (0.75-1.25)", ratio)
	}

	t1 := Table1(wspec.Suite(1_000))
	if t1.Rows() != 8 { // 7 categories + total
		t.Errorf("table1 rows = %d, want 8", t1.Rows())
	}
	t2 := Table2()
	if t2.Rows() != 4 {
		t.Errorf("table2 rows = %d, want 4", t2.Rows())
	}
}

func TestAnalyzeSuiteOrder(t *testing.T) {
	specs := miniSuite(30_000)
	stats := AnalyzeSuite(specs, 2)
	if len(stats) != len(specs) {
		t.Fatalf("got %d stats", len(stats))
	}
	for i, st := range stats {
		if st.Name != specs[i].Name {
			t.Errorf("stats[%d] = %s, want %s (order must match)", i, st.Name, specs[i].Name)
		}
	}
}

// TestRunnerBuildsEachTraceOnce runs an analysis pass and two simulation
// pass sets over one suite on one Runner and asserts via the cache counters
// that each workload's trace was constructed exactly once.
func TestRunnerBuildsEachTraceOnce(t *testing.T) {
	specs := miniSuite(30_000)
	r := testRunner(t)
	r.Fig1(specs)
	if _, err := r.RunSuite(specs, StandardPasses()); err != nil {
		t.Fatal(err)
	}
	cottage := []Pass{
		Shared(CondKeyHP, newHP, func() []predictor.Indirect {
			return []predictor.Indirect{core.New(core.DefaultConfig())}
		}),
		Shared(CondKeyTAGE, newTAGE, func() []predictor.Indirect {
			return []predictor.Indirect{ittage.New(ittage.DefaultConfig())}
		}),
	}
	if _, err := r.RunSuite(specs, cottage); err != nil {
		t.Fatal(err)
	}
	st := r.Cache().Stats()
	if st.Builds != int64(len(specs)) {
		t.Errorf("cache builds = %d, want %d (one per workload)", st.Builds, len(specs))
	}
	if st.Misses != int64(len(specs)) {
		t.Errorf("cache misses = %d, want %d", st.Misses, len(specs))
	}
	if st.Hits == 0 {
		t.Error("no cache hits across three drivers")
	}
}

// TestTapeSharedCondMatchesFullSimulation cross-checks the engine split: a
// pass run through the shared tape (CondKeyHP) must produce exactly the
// numbers the monolithic simulation produces.
func TestTapeSharedCondMatchesFullSimulation(t *testing.T) {
	specs := miniSuite(60_000)
	r := testRunner(t)
	rows, err := r.RunSuite(specs, []Pass{
		Shared(CondKeyHP, newHP, func() []predictor.Indirect {
			return []predictor.Indirect{core.New(core.DefaultConfig())}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		tr := spec.Build()
		want, err := sim.Run(tr, newHP(), []predictor.Indirect{core.New(core.DefaultConfig())}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := rows[i].Results[NameBLBP]
		if got != want[0] {
			t.Errorf("%s: tape result %+v != full simulation %+v", spec.Name, got, want[0])
		}
	}
}

// TestResultMemoSingleFlight: passes that agree on every memo key are
// simulated once per workload however many ask at once; every other
// request is served from the memo under its own pass's name.
func TestResultMemoSingleFlight(t *testing.T) {
	specs := miniSuite(20_000)[:2]
	var built atomic.Int64
	pass := func(name string) Pass {
		p := Shared(CondKeyHP, newHP, func() []predictor.Indirect {
			built.Add(1)
			return []predictor.Indirect{ittage.New(ittage.DefaultConfig())}
		})
		p.Memo = &PassMemo{Keys: []string{"ittage-default"}, Names: []string{name}}
		return p
	}
	const copies = 6
	passes := make([]Pass, copies)
	for i := range passes {
		passes[i] = pass(fmt.Sprintf("ittage-%d", i))
	}
	r := NewRunner(4)
	defer r.Close()
	rows, err := r.RunSuite(specs, passes)
	if err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != int64(len(specs)) {
		t.Errorf("%d pass constructions, want one per workload (%d)", got, len(specs))
	}
	if st := r.MemoStats(); st.Stored != int64(len(specs)) || st.Hits != int64(len(specs)*(copies-1)) {
		t.Errorf("memo %+v, want %d stored and %d hits", st, len(specs), len(specs)*(copies-1))
	}
	for _, row := range rows {
		want := row.Results["ittage-0"]
		for i := 1; i < copies; i++ {
			got := row.Results[fmt.Sprintf("ittage-%d", i)]
			want.Predictor = got.Predictor
			if got != want {
				t.Errorf("%s: copy %d result %+v differs from copy 0", row.Spec.Name, i, got)
			}
		}
	}
}
