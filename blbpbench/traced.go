package main

import (
	"fmt"
	"os"
	"path/filepath"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/sim"
	"blbp/internal/stats"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/wspec"
)

// sideOnly is an indirect predictor that does nothing. A shared-pass
// Tape.Run with it alone simulates the tape's conditional and return-stack
// side, which is what the first shared pass over a trace pays for.
type sideOnly struct{}

func (sideOnly) Name() string                                           { return "side-only" }
func (sideOnly) Predict(uint64) (uint64, bool)                          { return 0, false }
func (sideOnly) Update(uint64, uint64)                                  {}
func (sideOnly) OnCond(uint64, bool)                                    {}
func (sideOnly) OnOther(uint64, uint64, trace.BranchType)               {}
func (sideOnly) StorageBits() int                                       { return 0 }
func (sideOnly) OnCondSpan(*trace.Columns, int, int)                    {}
func (sideOnly) OnOtherSpan(*trace.Columns, int, int, trace.BranchType) {}

// newHP builds the default conditional substrate, the one every pass of
// the benchmark's plans names.
func newHP() cond.Predictor { return cond.NewHashedPerceptron(cond.DefaultHPConfig()) }

// exclusive reports whether a pass owns its conditional state (it holds a
// predictor bound to the conditional predictor, VPC) and so runs the full
// engine instead of replaying the shared tape.
func exclusive(ps runspec.Pass) (bool, error) {
	if ps.Cond != "" || len(ps.CondConfig) > 0 {
		return false, fmt.Errorf("the layer re-drive supports the default conditional substrate only")
	}
	excl := false
	for _, spec := range ps.Predictors {
		e, ok := predictor.Lookup(spec.Type)
		if !ok {
			return false, fmt.Errorf("unknown predictor type %q", spec.Type)
		}
		if e.NewProvider != nil {
			return false, fmt.Errorf("the layer re-drive does not support consolidated predictors (%s)", spec.Type)
		}
		excl = excl || e.NewBound != nil
	}
	return excl, nil
}

// newIndirect builds one plan predictor the way the plan layer does: its
// registry constructor on the merged config, under the plan's name.
func newIndirect(spec runspec.PredictorSpec, cp cond.Predictor) (predictor.Indirect, error) {
	e, _ := predictor.Lookup(spec.Type)
	cfg, err := e.Config(spec.Config)
	if err != nil {
		return nil, err
	}
	var ind predictor.Indirect
	if e.NewBound != nil {
		ind, err = e.NewBound(cfg, cp)
	} else {
		ind, err = e.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if spec.Name != "" {
		ind = experiments.Rename(ind, spec.Name)
	}
	return ind, nil
}

// layerStats counts the work the re-drive's layers did.
type layerStats struct {
	generateRecords int64
	decodeBytes     int64
	sideSims        int64
	sharedPasses    int64
	condBranches    int64
	predictions     int64
	mispredicts     int64
	blbpPredictions int64
	engineRecords   int64
}

// runTraced is one traced rep. It re-drives the untraced rep as explicit
// calls into each layer, with a span around each call:
//
//	run
//	├─ acquire.decode     tracecache.New (indexes the spill directory)
//	├─ setup
//	│  ├─ acquire.generate | acquire.decode   Cache.Get, per trace
//	│  └─ tape.build                         Entry.Tape, per trace
//	├─ simulate, per simulation × trace × pass
//	│  ├─ tape.side        first shared Tape.Run per trace (cond + RAS)
//	│  ├─ replay.<type>    one shared Tape.Run per predictor
//	│  └─ engine.<type>    Tape.Run of an exclusive pass (sim.RunColumns)
//	├─ verify             Exec.Run of every plan (not counted, see below)
//	├─ plan.assemble      Exec.Run again on the memoised Exec, CSVs written
//	└─ spill.write        Runner.Close and Cache.Close
//
// verify runs the plans through the scheduler once, which memoises their
// simulations so that plan.assemble times assembly and rendering alone; its
// results cross-check the re-drive's. It repeats work the layers above
// already did, so the traced wall time excludes it.
func runTraced(w workloadDef, seed, resultsDir, dir, seeded, spanFile string) (*repResult, error) {
	r := &repResult{CalibMS: calibrate()}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tr := NewTracer(filepath.Base(spanFile))
	root := tr.Start("run")
	plans, sims, err := loadPlans(w, seed)
	if err != nil {
		return nil, err
	}
	cfg := cacheConfig(w, dir, seeded)
	var ls layerStats
	ls.decodeBytes = dirBytes(cfg.SpillDir)
	s := tr.Start("acquire.decode")
	cache := tracecache.New(cfg)
	tr.End(s)
	runner := experiments.NewRunnerCache(1, cache)
	exec := runspec.NewExec(runner, base)
	specs := wspec.SuiteSeeded(base, seed)

	setup := tr.Start("setup")
	tapes := make([]*sim.Tape, len(specs))
	for i, sp := range specs {
		s := tr.Start("acquire.generate")
		before := cache.Stats().Builds
		e := cache.Get(sp)
		if cache.Stats().Builds == before {
			tr.Rename(s, "acquire.decode")
		} else {
			ls.generateRecords += int64(e.Columns().Len())
		}
		tr.End(s)
		s = tr.Start("tape.build")
		tape, err := e.Tape()
		tr.End(s)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", sp.Name, err)
		}
		tapes[i] = tape
	}
	tr.End(setup)
	acquired := cache.Stats()

	// mpki[sim][predictor] lists the per-trace MPKI in suite order.
	mpki := make([]map[string][]float64, len(sims))
	sided := make([]bool, len(specs))
	simulate := tr.Start("simulate")
	for si, sm := range sims {
		mpki[si] = map[string][]float64{}
		for i, tape := range tapes {
			for _, ps := range sm.passes {
				if err := redrivePass(tr, tape, ps, &sided[i], &ls, mpki[si]); err != nil {
					return nil, fmt.Errorf("workload %s: %w", specs[i].Name, err)
				}
			}
		}
	}
	tr.End(simulate)

	verify := tr.Start("verify")
	files, failed := renderPlans(exec, plans, "")
	tr.End(verify)
	s = tr.Start("plan.assemble")
	assembled, failedAgain := renderPlans(exec, plans, outDir)
	tr.End(s)
	written := dirBytes(cfg.SpillDir)
	s = tr.Start("spill.write")
	runner.Close()
	closing := cache.Stats()
	cache.Close()
	tr.End(s)
	tr.End(root)
	written = dirBytes(cfg.SpillDir) - written
	r.sampleProcess()
	if err := tr.WriteFile(spanFile); err != nil {
		return nil, err
	}

	r.TracedWallS = (tr.Duration(root) - tr.Duration(verify)).Seconds()
	r.Attempted = tasks(sims, len(specs))
	r.Failed = failedTasks(sims, len(specs), failed)
	for _, p := range plans {
		if err := failed[p]; err != nil {
			r.Notes = append(r.Notes, err.Error())
		}
	}
	// The assembled CSVs are the ones checked; they must equal the
	// scheduler's, and the re-drive's suite means must match theirs.
	r.Attempted++
	if d := outputDigest(files); len(failedAgain) > 0 || outputDigest(assembled) != d {
		r.fail(1, fmt.Errorf("plan.assemble rendered other CSVs than the first Exec.Run"))
	}
	for si, sm := range sims {
		means := map[string]float64{}
		for name, xs := range mpki[si] {
			means[name] = stats.Mean(xs)
		}
		for _, p := range sm.plans {
			for _, out := range p.Outputs {
				name := out.File
				if name == "" {
					name = out.Table
				}
				if files[name] == nil {
					continue
				}
				r.Attempted++
				if err := checkMeans(name, files[name], means); err != nil {
					r.fail(1, err)
				}
			}
		}
	}
	r.finish(w, seed, resultsDir, assembled, closing)
	r.Layers = layerMetrics(tr.Spans(), ls, acquired, len(specs), written)
	for _, b := range assembled {
		r.Layers["plan.output_bytes"] += float64(len(b))
	}
	return r, nil
}

// redrivePass drives one pass over one trace as explicit layer calls.
// sided records whether the trace's shared conditional side has been
// simulated; it is shared by every simulation of the rep, as the tape's
// memo is.
func redrivePass(tr *Tracer, tape *sim.Tape, ps runspec.Pass, sided *bool, ls *layerStats, mpki map[string][]float64) error {
	excl, err := exclusive(ps)
	if err != nil {
		return err
	}
	record := func(res []sim.Result) {
		for _, x := range res {
			mpki[x.Predictor] = append(mpki[x.Predictor], x.IndirectMPKI())
		}
	}
	cols := tape.Columns()
	if excl {
		s := tr.Start("engine." + ps.Predictors[0].Type)
		hp := newHP()
		inds := make([]predictor.Indirect, len(ps.Predictors))
		for i, spec := range ps.Predictors {
			if inds[i], err = newIndirect(spec, hp); err != nil {
				return err
			}
		}
		res, err := tape.Run("", hp, inds, sim.Options{})
		tr.End(s)
		if err != nil {
			return err
		}
		ls.engineRecords += int64(cols.Len())
		record(res)
		return nil
	}

	ls.sharedPasses++
	if !*sided {
		s := tr.Start("tape.side")
		_, err := tape.Run(experiments.CondKeyHP, newHP(), []predictor.Indirect{sideOnly{}}, sim.Options{})
		tr.End(s)
		if err != nil {
			return err
		}
		*sided = true
		ls.sideSims++
		ls.condBranches += cols.Count(trace.CondDirect)
	}
	for _, spec := range ps.Predictors {
		s := tr.Start("replay." + spec.Type)
		ind, err := newIndirect(spec, nil)
		if err != nil {
			tr.End(s)
			return err
		}
		res, err := tape.Run(experiments.CondKeyHP, newHP(), []predictor.Indirect{ind}, sim.Options{})
		tr.End(s)
		if err != nil {
			return err
		}
		ls.predictions += res[0].IndirectBranches
		ls.mispredicts += res[0].IndirectMispredicts
		if spec.Type == experiments.NameBLBP {
			ls.blbpPredictions += res[0].IndirectBranches
		}
		record(res)
	}
	return nil
}

// layerMetrics turns the spans and counters of a traced rep into the
// per-layer metrics (all but runtime.* and trace.*, which the parent process adds
// from the untraced reps).
func layerMetrics(spans []Span, ls layerStats, acquired tracecache.Stats, workloads int, written int64) map[string]float64 {
	self := SelfTimes(spans)
	secs := func(name string) float64 { return self[name].Seconds() }
	return map[string]float64{
		"acquire.generate_s":       secs("acquire.generate"),
		"acquire.generate_records": float64(ls.generateRecords),
		"acquire.decode_s":         secs("acquire.decode"),
		"acquire.decode_mb":        float64(ls.decodeBytes) / (1 << 20),
		"acquire.builds":           float64(acquired.Builds),
		"acquire.spill_loads":      float64(acquired.SpillLoads),
		"acquire.preload_hits":     float64(acquired.PreloadHits),
		"acquire.spill_errors":     float64(acquired.SpillErrors),
		"acquire.warm_hit_ratio":   float64(acquired.PreloadHits) / float64(workloads),
		"spill.write_s":            secs("spill.write"),
		"spill.write_mb":           float64(written) / (1 << 20),
		"tape.build_s":             secs("tape.build"),
		"tape.side_s":              secs("tape.side"),
		"tape.cond_branches":       float64(ls.condBranches),
		"tape.side_sims":           float64(ls.sideSims),
		"tape.reuse_ratio":         float64(ls.sharedPasses) / float64(max(ls.sideSims, 1)),
		"replay.blbp_s":            secs("replay.blbp"),
		"replay.ittage_s":          secs("replay.ittage"),
		"replay.btb_s":             secs("replay.btb"),
		"replay.blbp_ns_per_pred":  float64(self["replay.blbp"].Nanoseconds()) / float64(max(ls.blbpPredictions, 1)),
		"replay.predictions":       float64(ls.predictions),
		"replay.mispredicts":       float64(ls.mispredicts),
		"engine.vpc_s":             secs("engine.vpc"),
		"engine.records":           float64(ls.engineRecords),
		"plan.assemble_s":          secs("plan.assemble"),
	}
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, de := range des {
		if info, err := de.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
