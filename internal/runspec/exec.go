package runspec

import (
	"fmt"
	"strings"

	"blbp/internal/experiments"
	"blbp/internal/report"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// Exec drives plans over one experiments.Runner. Reuse across plans lives
// in the runner's per-predictor result memo (experiments.PassMemo): every
// compiled pass names its results by trace, conditional key, RAS options
// and predictor type plus merged config, so a predictor that any earlier
// pass of the process ran on a trace is served, not simulated again. The
// overall, fig8 and fig9 built-ins share one suite run that way, and so do
// Fig. 10's all-on and Fig. 11's assoc-64 (both the default BLBP).
type Exec struct {
	r    *experiments.Runner
	base int64
	// registry holds session-registered workload specs (RegisterWorkload);
	// spec-listed suites resolve names here before the built-ins.
	registry map[string]wspec.WorkloadSpec
}

// NewExec returns an executor over r. base is the default per-SHORT-trace
// instruction budget for plans that don't pin one (the CLI's -base flag).
func NewExec(r *experiments.Runner, base int64) *Exec {
	return &Exec{r: r, base: base}
}

// Runner exposes the underlying execution layer (characterization outputs
// use its analysis path).
func (x *Exec) Runner() *experiments.Runner { return x.r }

// RenderedOutput is one assembled output of a plan.
type RenderedOutput struct {
	// Name is the output's registered table name.
	Name string
	// File is the CSV base name (Output.File, defaulted to Name).
	File string
	// Table is the assembled report table.
	Table *report.Table
	// Chart is an optional bar-chart rendition (fig10/fig11).
	Chart *report.Chart
	// Data is the output's structured result (type varies per output).
	Data any
}

// Run validates and executes the plan, returning its outputs in plan
// order.
func (x *Exec) Run(plan *Plan) ([]RenderedOutput, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	suites, err := x.resolveSuites(plan.Suite)
	if err != nil {
		return nil, err
	}
	needsPasses, needsProbes := false, false
	for _, out := range plan.Outputs {
		oe, _ := lookupOutput(out.Table)
		needsPasses = needsPasses || oe.needsPasses
		needsProbes = needsProbes || oe.needsProbes
	}

	ctx := &OutputContext{exec: x, plan: plan, suites: suites}
	if len(plan.Passes) > 0 && needsPasses {
		cp, err := compilePasses(plan, len(suites[0]), needsProbes)
		if err != nil {
			return nil, err
		}
		if ctx.results, err = x.r.RunSuites(suites, cp.passes); err != nil {
			return nil, err
		}
		ctx.cp = cp
	}

	outs := make([]RenderedOutput, 0, len(plan.Outputs))
	for _, out := range plan.Outputs {
		oe, _ := lookupOutput(out.Table)
		tb, ch, data, err := oe.render(ctx)
		if err != nil {
			return nil, fmt.Errorf("runspec: output %s: %v", out.Table, err)
		}
		file := out.File
		if file == "" {
			file = out.Table
		}
		outs = append(outs, RenderedOutput{Name: out.Table, File: file, Table: tb, Chart: ch, Data: data})
	}
	return outs, nil
}

// resolveSuites materializes the plan's workload population: one spec
// slice per seeded draw (spec-listed suites are a single draw, compiled
// from the executor's registries).
func (x *Exec) resolveSuites(s Suite) ([][]workload.Spec, error) {
	if len(s.Specs) > 0 {
		return x.resolveSpecSuite(s)
	}
	b := s.Base
	if b == 0 {
		b = x.base
	}
	salts := s.Salts
	if len(salts) == 0 {
		salts = []string{""}
	}
	suites := make([][]workload.Spec, len(salts))
	for i, salt := range salts {
		var specs []workload.Spec
		if s.Kind == "holdout" {
			specs = wspec.SuiteHoldout(b)
		} else {
			specs = wspec.SuiteSeeded(b, salt)
		}
		specs, err := subsetSuite(specs, s.Workloads)
		if err != nil {
			return nil, err
		}
		suites[i] = specs
	}
	return suites, nil
}

// subsetSuite restricts specs to the named workloads, preserving suite
// order. Unknown names are an error so plan typos surface.
func subsetSuite(specs []workload.Spec, names []string) ([]workload.Spec, error) {
	if len(names) == 0 {
		return specs, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make([]workload.Spec, 0, len(names))
	for _, sp := range specs {
		if want[sp.Name] {
			out = append(out, sp)
			delete(want, sp.Name)
		}
	}
	if len(want) > 0 {
		// Reconstruct the missing names in request order (no map range).
		missing := make([]string, 0, len(want))
		for _, n := range names {
			if want[n] {
				want[n] = false
				missing = append(missing, n)
			}
		}
		return nil, fmt.Errorf("runspec: suite has no workload(s) %s", strings.Join(missing, ", "))
	}
	return out, nil
}
