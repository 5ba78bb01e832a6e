package runspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/sim"
)

// compiledPlan is a plan's passes lowered to the experiments layer, plus
// the bookkeeping outputs need to interpret the results.
type compiledPlan struct {
	passes []experiments.Pass
	// specs/names flatten the plan's predictors in (pass, spec) order;
	// names[i] is the key specs[i]'s results appear under.
	specs []PredictorSpec
	names []string
	// probes retains the constructed predictor instances per (pass,
	// workload) when an output needs to read per-instance metrics after
	// the run; nil otherwise.
	probes *probeStore
}

// probeStore retains the raw (pre-rename) predictor instances of every
// (pass, workload) cell. Each simulation task writes only its own cell, so
// concurrent passes never share a slot.
type probeStore struct {
	insts [][][]predictor.Indirect // [pass][workload][spec-in-pass]
	names [][]string               // [pass][spec-in-pass] display names
}

// find returns workload w's instance of the named predictor (nil if the
// plan has no such predictor or the cell never ran).
func (s *probeStore) find(w int, name string) predictor.Indirect {
	for pi := range s.names {
		for si, n := range s.names[pi] {
			if n != name {
				continue
			}
			if w >= len(s.insts[pi]) || s.insts[pi][w] == nil {
				return nil
			}
			return s.insts[pi][w][si]
		}
	}
	return nil
}

// compilePasses lowers the plan's passes. Every constructor is dry-run
// once here so config and wiring errors surface before any simulation; the
// per-workload factories built below can then only repeat constructions
// that are known to succeed.
//
// Every pass carries a result-memo identity (experiments.PassMemo), so a
// predictor that an earlier pass or plan of the process already ran on a
// trace is served from the runner's memo instead of simulated again. With
// probes the passes run regardless, since their outputs read the
// instances they build; they still record their results.
func compilePasses(p *Plan, workloads int, withProbes bool) (*compiledPlan, error) {
	cp := &compiledPlan{}
	if withProbes {
		cp.probes = &probeStore{
			insts: make([][][]predictor.Indirect, len(p.Passes)),
			names: make([][]string, len(p.Passes)),
		}
	}
	for pi := range p.Passes {
		pass, names, err := compileOnePass(p.Passes[pi], pi, cp.probes)
		if err != nil {
			return nil, err
		}
		pass.Memo.FillOnly = withProbes
		if cp.probes != nil {
			// Preallocated here, before any task runs, so the concurrent
			// factories below only ever write their own (pass, workload)
			// slot.
			cp.probes.insts[pi] = make([][]predictor.Indirect, workloads)
			cp.probes.names[pi] = names
		}
		cp.passes = append(cp.passes, pass)
		cp.specs = append(cp.specs, p.Passes[pi].Predictors...)
		cp.names = append(cp.names, names...)
	}
	return cp, nil
}

func compileOnePass(ps Pass, pi int, probes *probeStore) (experiments.Pass, []string, error) {
	fail := func(err error) (experiments.Pass, []string, error) {
		return experiments.Pass{}, nil, fmt.Errorf("runspec: pass %d: %v", pi, err)
	}

	// Materialize every config once; the factories below close over the
	// resolved values.
	type resolved struct {
		entry predictor.Entry
		cfg   any
	}
	specs := make([]resolved, len(ps.Predictors))
	names := make([]string, len(ps.Predictors))
	keys := make([]string, len(ps.Predictors))
	provider := -1
	bound := false
	for si, spec := range ps.Predictors {
		e, ok := predictor.Lookup(spec.Type)
		if !ok {
			return fail(fmt.Errorf("unknown predictor type %q", spec.Type))
		}
		cfg, err := e.Config(spec.Config)
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s config does not marshal: %v", spec.Type, err))
		}
		specs[si] = resolved{entry: e, cfg: cfg}
		names[si] = displayName(spec)
		keys[si] = spec.Type + string(b)
		switch {
		case e.NewProvider != nil:
			provider = si
		case e.NewBound != nil:
			bound = true
		}
	}

	if provider >= 0 {
		// A consolidated predictor provides the pass's conditional
		// predictor itself; the pass owns conditional state.
		r := specs[provider]
		rename := ps.Predictors[provider].Name
		if _, _, err := r.entry.NewProvider(r.cfg); err != nil {
			return fail(err)
		}
		pass := experiments.Pass{
			New: func(w int, _ []bool) (cond.Predictor, []predictor.Indirect) {
				cpred, ind, err := r.entry.NewProvider(r.cfg)
				if err != nil {
					panic(fmt.Sprintf("runspec: %s construction failed after successful dry run: %v", r.entry.Name, err))
				}
				inds := []predictor.Indirect{ind}
				retain(probes, pi, w, inds)
				if rename != "" {
					inds[0] = experiments.Rename(ind, rename)
				}
				return cpred, inds
			},
			// The provider is the whole pass: one unit, reported under
			// the provider's name.
			Memo: &experiments.PassMemo{Keys: keys[provider : provider+1], Names: names[provider : provider+1]},
		}
		return pass, names, nil
	}

	ce, ok := lookupCond(condNameOrDefault(ps.Cond))
	if !ok {
		return fail(fmt.Errorf("unknown conditional substrate %q", ps.Cond))
	}
	condCfg, err := ce.config(ps.CondConfig)
	if err != nil {
		return fail(err)
	}
	newCond := func() cond.Predictor {
		cpred, err := ce.build(condCfg)
		if err != nil {
			panic(fmt.Sprintf("runspec: cond %s construction failed after successful dry run: %v", ce.name, err))
		}
		return cpred
	}

	// Dry-run the whole pass once: the conditional predictor, every
	// indirect predictor, and the natural-name fallback check.
	trialCond, err := ce.build(condCfg)
	if err != nil {
		return fail(err)
	}
	for si := range specs {
		r := specs[si]
		var trial predictor.Indirect
		if r.entry.NewBound != nil {
			trial, err = r.entry.NewBound(r.cfg, trialCond)
		} else {
			trial, err = r.entry.New(r.cfg)
		}
		if err != nil {
			return fail(err)
		}
		// A config override can change what the instance calls itself
		// (btb's hysteresis flag); without an explicit name the results
		// would then be keyed differently than the plan expects.
		if ps.Predictors[si].Name == "" && trial.Name() != names[si] {
			return fail(fmt.Errorf("predictor %q reports results as %q with this config; set \"name\" explicitly",
				r.entry.Name, trial.Name()))
		}
	}

	condKey := sim.CondKey(ce.name, condCfg)
	// build constructs the pass's predictors for workload w: on a shared
	// pass only those need marks (all when need is nil) and no conditional
	// predictor, which the tape builds with newCond if it must; on a bound
	// pass all of them, over one fresh conditional predictor.
	build := func(w int, need []bool) (cond.Predictor, []predictor.Indirect) {
		var cpred cond.Predictor
		if bound {
			cpred = newCond()
		}
		raw := make([]predictor.Indirect, len(specs))
		inds := make([]predictor.Indirect, len(specs))
		for si := range specs {
			if need != nil && !need[si] {
				continue
			}
			r := specs[si]
			var ind predictor.Indirect
			var err error
			if r.entry.NewBound != nil {
				ind, err = r.entry.NewBound(r.cfg, cpred)
			} else {
				ind, err = r.entry.New(r.cfg)
			}
			if err != nil {
				panic(fmt.Sprintf("runspec: %s construction failed after successful dry run: %v", r.entry.Name, err))
			}
			raw[si] = ind
			if name := ps.Predictors[si].Name; name != "" {
				ind = experiments.Rename(ind, name)
			}
			inds[si] = ind
		}
		retain(probes, pi, w, raw)
		return cpred, inds
	}

	if bound {
		// A pass whose predictor shares (and pollutes) the conditional
		// predictor owns its conditional state: never tape-shared, and
		// memoised as one unit keyed by everything in it.
		unit := "cond=" + condKey + ";" + strings.Join(keys, ";")
		return experiments.Pass{
			New:  build,
			Memo: &experiments.PassMemo{Keys: []string{unit}, Names: names},
		}, names, nil
	}
	return experiments.Pass{
		CondKey: condKey,
		NewCond: newCond,
		New:     build,
		Memo:    &experiments.PassMemo{Keys: keys, Names: names},
	}, names, nil
}

// retain records one (pass, workload) cell's raw instances in the probe
// store. The per-pass slices are preallocated before any task runs and
// each task owns a distinct slot, so no synchronization is needed beyond
// the runner's own completion barrier.
func retain(probes *probeStore, pi, w int, inds []predictor.Indirect) {
	if probes == nil {
		return
	}
	probes.insts[pi][w] = inds
}
