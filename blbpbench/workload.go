package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"blbp/internal/experiments"
	"blbp/internal/runspec"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// base is the per-SHORT-trace instruction budget of the committed results
// (`make results`).
const base = 600_000

// workloadDef is one benchmark workload: the built-in plans it runs in one
// process, and whether its traces come from a spill directory seeded by an
// earlier process (warm) or from the generators (cold).
type workloadDef struct {
	name  string
	plans []string
	warm  bool
}

var workloads = []workloadDef{
	// The §5.1 run, simulated once and rendered three ways, from an empty
	// trace cache that keeps a fresh spill directory: the first
	// `make results`.
	{name: "headline-cold", plans: []string{"overall", "fig8", "fig9"}},
	// The Fig. 10 ablation and the Fig. 11 associativity sweep: 19 passes
	// over one shared tape per trace, with every trace decoded from a
	// spill directory seeded beforehand by a separate process.
	{name: "ablation-warm", plans: []string{"fig10", "fig11"}, warm: true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simulation is one distinct (suite, passes) pair of a workload's plans.
// Exec memoises plans with identical suites and passes, so overall, fig8
// and fig9 share a single simulation.
type simulation struct {
	passes []runspec.Pass
	plans  []*runspec.Plan
}

// loadPlans loads the workload's built-in plans at the seed's suite draw
// and groups them into simulations.
func loadPlans(w workloadDef, seed string) ([]*runspec.Plan, []*simulation, error) {
	var plans []*runspec.Plan
	var sims []*simulation
	byKey := map[string]*simulation{}
	for _, name := range w.plans {
		p, ok := runspec.Builtin(name)
		if !ok {
			return nil, nil, fmt.Errorf("no built-in plan %q", name)
		}
		s := p.Suite
		if s.Kind != "" || s.Base != 0 || len(s.Salts) > 0 || len(s.Workloads) > 0 || len(s.Specs) > 0 {
			return nil, nil, fmt.Errorf("plan %s: the benchmark drives the standard suite at its own base and draw only", name)
		}
		if seed != "" {
			p.Suite.Salts = []string{seed}
		}
		key, err := json.Marshal(struct {
			Suite  runspec.Suite
			Passes []runspec.Pass
		}{p.Suite, p.Passes})
		if err != nil {
			return nil, nil, err
		}
		sim := byKey[string(key)]
		if sim == nil {
			sim = &simulation{passes: p.Passes}
			byKey[string(key)] = sim
			sims = append(sims, sim)
		}
		sim.plans = append(sim.plans, p)
		plans = append(plans, p)
	}
	return plans, sims, nil
}

// tasks returns the (workload × pass) task count of the simulations, and
// simulated returns Σ(trace instructions × indirect predictors simulated)
// given the suite's total instruction count.
func tasks(sims []*simulation, workloads int) int {
	n := 0
	for _, sim := range sims {
		n += workloads * len(sim.passes)
	}
	return n
}

func simulated(sims []*simulation, suiteInstr int64) float64 {
	var preds int
	for _, sim := range sims {
		for _, ps := range sim.passes {
			preds += len(ps.Predictors)
		}
	}
	return float64(suiteInstr) * float64(preds)
}

// failedTasks counts the tasks of every simulation one of whose plans
// failed.
func failedTasks(sims []*simulation, workloads int, failed map[*runspec.Plan]error) int {
	n := 0
	for _, sim := range sims {
		for _, p := range sim.plans {
			if failed[p] != nil {
				n += workloads * len(sim.passes)
				break
			}
		}
	}
	return n
}

// cacheConfig is the trace cache of one rep: a warm workload reads (and
// keeps) the seeded directory, a cold one keeps a fresh one.
func cacheConfig(w workloadDef, dir, seeded string) tracecache.Config {
	if w.warm {
		return tracecache.Config{SpillDir: seeded, KeepSpill: true}
	}
	return tracecache.Config{SpillDir: filepath.Join(dir, "spill"), KeepSpill: true}
}

// acquireAll gets and tapes every suite trace and returns the suite's
// total instruction count.
func acquireAll(cache *tracecache.Cache, specs []workload.Spec) (int64, error) {
	var instr int64
	for _, sp := range specs {
		tape, err := cache.Get(sp).Tape()
		if err != nil {
			return 0, fmt.Errorf("workload %s: %w", sp.Name, err)
		}
		instr += tape.Instructions()
	}
	return instr, nil
}

// renderPlans runs each plan on the executor and returns the CSVs of the
// plans that succeeded and the errors of those that failed. When outDir is
// not empty the CSVs are also written there.
func renderPlans(exec *runspec.Exec, plans []*runspec.Plan, outDir string) (map[string][]byte, map[*runspec.Plan]error) {
	files := map[string][]byte{}
	failed := map[*runspec.Plan]error{}
	for _, p := range plans {
		if err := renderPlan(exec, p, outDir, files); err != nil {
			failed[p] = fmt.Errorf("plan %s: %w", p.Name, err)
		}
	}
	return files, failed
}

func renderPlan(exec *runspec.Exec, p *runspec.Plan, outDir string, files map[string][]byte) error {
	outs, err := exec.Run(p)
	if err != nil {
		return err
	}
	for _, out := range outs {
		var buf bytes.Buffer
		if err := out.Table.WriteCSV(&buf); err != nil {
			return err
		}
		files[out.File] = buf.Bytes()
		if outDir != "" {
			if err := os.WriteFile(filepath.Join(outDir, out.File+".csv"), buf.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// repResult is what one rep process reports to the parent process.
type repResult struct {
	CalibMS   float64  `json:"calib_ms"`
	WallS     float64  `json:"wall_s"`
	SetupS    float64  `json:"setup_s"`
	Instr     float64  `json:"instr"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	Digest    string   `json:"digest"`
	GCCPUS    float64  `json:"gc_cpu_s"`
	GCCycles  float64  `json:"gc_cycles"`
	AllocMB   float64  `json:"alloc_mb"`
	// Traced reps only: layer metrics and the traced wall time.
	Layers      map[string]float64 `json:"layers,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
}

// fail records one failed task or check.
func (r *repResult) fail(n int, err error) {
	r.Failed += n
	r.Notes = append(r.Notes, err.Error())
}

// finish runs the output checks every rep makes; stats are the trace
// cache's counters at the end of the rep.
func (r *repResult) finish(w workloadDef, seed, resultsDir string, files map[string][]byte, stats tracecache.Stats) {
	for _, c := range checkOutputs(resultsDir, seed, files) {
		r.Attempted++
		if c.err != nil {
			r.fail(1, c.err)
		}
	}
	if w.warm {
		// The warm-start contract: every trace decodes from the seeded
		// directory. A build or a spill error fails the rep.
		r.Attempted++
		if stats.Builds > 0 || stats.SpillErrors > 0 {
			r.fail(1, fmt.Errorf("warm start built %d traces with %d spill errors", stats.Builds, stats.SpillErrors))
		}
	}
	r.Digest = outputDigest(files)
}

// sampleProcess records the process's GC and allocation totals and its
// peak resident set size.
func (r *repResult) sampleProcess() {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	r.GCCPUS = samples[0].Value.Float64()
	r.GCCycles = float64(samples[1].Value.Uint64())
	r.AllocMB = float64(samples[2].Value.Uint64()) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// runRep is one untraced rep: the path `experiments -csv` takes, with
// every trace acquired and taped before the plans run.
func runRep(w workloadDef, seed, resultsDir, dir, seeded string) (*repResult, error) {
	r := &repResult{CalibMS: calibrate()}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	start := time.Now()
	plans, sims, err := loadPlans(w, seed)
	if err != nil {
		return nil, err
	}
	cache := tracecache.New(cacheConfig(w, dir, seeded))
	runner := experiments.NewRunnerCache(1, cache)
	exec := runspec.NewExec(runner, base)
	specs := wspec.SuiteSeeded(base, seed)
	suiteInstr, err := acquireAll(cache, specs)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	files, failed := renderPlans(exec, plans, outDir)
	runner.Close()
	stats := cache.Stats()
	cache.Close()
	wall := time.Since(start)
	r.sampleProcess()

	r.WallS, r.SetupS = wall.Seconds(), setup.Seconds()
	r.Instr = simulated(sims, suiteInstr)
	r.Attempted = tasks(sims, len(specs))
	r.Failed = failedTasks(sims, len(specs), failed)
	for _, p := range plans {
		if err := failed[p]; err != nil {
			r.Notes = append(r.Notes, err.Error())
		}
	}
	r.finish(w, seed, resultsDir, files, stats)
	return r, nil
}

// seedSpill builds every suite trace at the seed's draw and keeps them in
// dir, so warm reps decode instead of generating.
func seedSpill(seed, dir string) error {
	cache := tracecache.New(tracecache.Config{SpillDir: dir, KeepSpill: true})
	if _, err := acquireAll(cache, wspec.SuiteSeeded(base, seed)); err != nil {
		return err
	}
	cache.Close()
	if s := cache.Stats(); s.SpillErrors > 0 {
		return fmt.Errorf("seeding %s: %d spill errors", dir, s.SpillErrors)
	}
	return nil
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed, allocation-free xorshift loop in milliseconds.
// It is each rep's noise diagnostic: on a quiet host it reads the same
// every time, so a slow rep with a slow calibration points at the host,
// and a slow rep with a normal one at the program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start)) / float64(time.Millisecond)
}
