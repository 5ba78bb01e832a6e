package runspec

import (
	"bytes"
	"strings"
	"testing"

	"blbp/internal/experiments"
)

// miniWorkloads is a three-workload subset of the standard suite, small
// enough for behavioral tests at reduced instruction budgets.
var miniWorkloads = []string{"252.eon", "400.perlbench-1", "403.gcc-1"}

// miniPlan is a two-pass sweep over the subset: the shared-substrate pass
// plus a renamed config-override arm, rendered as the generic MPKI table.
func miniPlan(base int64) *Plan {
	return &Plan{
		Name:  "mini",
		Suite: Suite{Base: base, Workloads: miniWorkloads},
		Passes: []Pass{
			{Predictors: []PredictorSpec{{Type: "blbp"}, {Type: "ittage"}}},
			{Predictors: []PredictorSpec{
				{Type: "blbp", Name: "no-target-bits", Config: []byte(`{"GlobalTargetBits":0}`)},
			}},
		},
		Outputs: []Output{{Table: "mpki"}},
	}
}

func renderCSV(t *testing.T, out RenderedOutput) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := out.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExecSubsetSuite runs a user-style plan over a workload subset and
// checks the assembled table covers exactly the requested population.
func TestExecSubsetSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three workloads")
	}
	plan := miniPlan(20_000)
	outs, err := NewExec(experiments.NewRunner(0), 600_000).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(outs))
	}
	out := outs[0]
	if out.Name != "mpki" || out.File != "mpki" {
		t.Errorf("output identity %q/%q, want mpki/mpki (File defaults to Table)", out.Name, out.File)
	}
	csv := string(renderCSV(t, out))
	for _, want := range append(append([]string{}, miniWorkloads...), "MEAN", "no-target-bits", "ittage", "blbp") {
		if !strings.Contains(csv, want) {
			t.Errorf("mpki CSV lacks %q:\n%s", want, csv)
		}
	}
	// The subset must not balloon to the full suite: 3 workloads + header +
	// MEAN is 5 CSV lines.
	if lines := strings.Count(strings.TrimSpace(csv), "\n") + 1; lines != 5 {
		t.Errorf("mpki CSV has %d lines, want 5:\n%s", lines, csv)
	}
}

// TestExecUnknownWorkloadFailsLoudly: a typo in suite.workloads must name
// the missing workload instead of silently shrinking the population.
func TestExecUnknownWorkloadFailsLoudly(t *testing.T) {
	plan := miniPlan(10_000)
	plan.Suite.Workloads = []string{"252.eon", "999.phantom"}
	_, err := NewExec(experiments.NewRunner(0), 600_000).Run(plan)
	if err == nil || !strings.Contains(err.Error(), "999.phantom") {
		t.Errorf("error = %v, want mention of 999.phantom", err)
	}
}

// TestExecMemoizesIdenticalRuns: two plans over byte-equal (suite, passes)
// must share one simulation, the property that makes the overall/fig8/fig9
// trio cost a single suite run: the second plan's every result comes from
// the runner's result memo.
func TestExecMemoizesIdenticalRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three workloads")
	}
	r := experiments.NewRunner(0)
	defer r.Close()
	x := NewExec(r, 600_000)
	a := miniPlan(15_000)
	b := miniPlan(15_000)
	b.Name = "mini-again"
	b.Outputs = []Output{{Table: "mpki", File: "other"}}
	ra, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	first := r.MemoStats()
	if first.Hits != 0 || first.Stored == 0 {
		t.Fatalf("after one plan: memo %+v, want results stored and no hits", first)
	}
	rb, err := x.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MemoStats(); got.Hits != first.Stored || got.Stored != first.Stored {
		t.Errorf("after an identical plan: memo %+v, want all %d results served and none stored", got, first.Stored)
	}
	if !bytes.Equal(renderCSV(t, ra[0]), renderCSV(t, rb[0])) {
		t.Error("shared run rendered different tables")
	}
	if rb[0].File != "other" {
		t.Errorf("File = %q, want the plan's override %q", rb[0].File, "other")
	}
	// A different instruction budget is a different simulation.
	before := r.MemoStats()
	c := miniPlan(10_000)
	if _, err := x.Run(c); err != nil {
		t.Fatal(err)
	}
	if got := r.MemoStats(); got.Hits != before.Hits || got.Stored != 2*first.Stored {
		t.Errorf("after a re-scaled plan: memo %+v, want no new hits and %d stored", got, 2*first.Stored)
	}
}

// TestExecSerialParallelByteIdentity: the scheduler's fan-out must not
// leak into results — a plan renders byte-identical tables on a serial
// and a heavily parallel runner.
func TestExecSerialParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three workloads twice")
	}
	plan := miniPlan(15_000)
	serial, err := NewExec(experiments.NewRunner(1), 600_000).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewExec(experiments.NewRunner(8), 600_000).Run(miniPlan(15_000))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := renderCSV(t, serial[0]), renderCSV(t, parallel[0]); !bytes.Equal(s, p) {
		t.Errorf("serial and parallel runs differ:\n%s\nvs\n%s", s, p)
	}
}

// TestExecProbeOutput drives a probe-collecting output (latency) through
// the generic path on the subset suite.
func TestExecProbeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two workloads")
	}
	plan := &Plan{
		Name:    "mini-latency",
		Suite:   Suite{Base: 15_000, Workloads: miniWorkloads[:2]},
		Passes:  []Pass{{Predictors: []PredictorSpec{{Type: "blbp"}}}},
		Outputs: []Output{{Table: "latency"}},
	}
	outs, err := NewExec(experiments.NewRunner(0), 600_000).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := outs[0].Data.(LatencyResult)
	if !ok {
		t.Fatalf("latency Data has type %T", outs[0].Data)
	}
	if res.PctOneCycle <= 0 || res.PctOneCycle > 100 ||
		res.PctWithin4 < res.PctOneCycle || res.MeanCycles < 1 {
		t.Errorf("implausible latency result %+v", res)
	}
}
