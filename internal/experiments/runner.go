// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// driver returns both a rendered report table and the raw data, so the
// command-line tool, the benchmarks, and the tests all share one
// implementation.
//
// Drivers run on a Runner, the process-wide execution layer: one trace
// cache (internal/tracecache) so each workload's trace is built exactly
// once per process no matter how many drivers touch it, and one
// work-stealing worker pool that schedules (workload × pass) tasks — the
// granularity CBP-style trace-driven infrastructures parallelize at — so
// multi-pass drivers like the Fig. 10 ablation no longer run their passes
// serially inside one goroutine. A per-predictor result memo (PassMemo)
// lets any pass reuse a result an earlier pass of the process computed.
package experiments

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
)

// PassFactory builds one engine pass: a conditional predictor and the
// indirect predictors that share it. Factories are invoked once per
// workload so every trace starts with cold predictors, as in the paper.
type PassFactory func() (cond.Predictor, []predictor.Indirect)

// Pass couples a pass's constructors with its scheduling contract.
type Pass struct {
	// CondKey identifies the conditional predictor configuration when its
	// simulation is shareable (sim.CondKey gives the canonical key): every
	// pass declaring the same key must construct an identical conditional
	// predictor, and the engine then simulates the conditional/RAS side
	// once per (trace, key) on the workload's tape and replays it for
	// every other pass (see sim.Tape). An empty key marks a pass that owns
	// conditional state (VPC, the consolidated predictor) and is always
	// fully simulated.
	CondKey string
	// NewCond builds a fresh conditional predictor of a shared pass's
	// configuration. The tape calls it only when it has no count for
	// (trace, CondKey), neither from an earlier pass nor from the spill
	// directory's count index.
	NewCond func() cond.Predictor
	// New builds the pass's predictors for workload index w. A shared pass
	// returns a nil conditional predictor (NewCond supplies it); an
	// exclusive pass returns the one its indirect predictors run with.
	// need, when non-nil, marks the indirect predictors the task runs: a
	// shared pass may leave the others nil, since the result memo serves
	// them. Most passes ignore w; drivers that collect per-workload side
	// data (Hierarchy, Latency) use it to key sample ownership instead of
	// sharing slices.
	New func(w int, need []bool) (cond.Predictor, []predictor.Indirect)
	// Memo, when set, lets the runner reuse the pass's results across
	// passes and plans (see PassMemo); nil passes always simulate.
	Memo *PassMemo
}

// PassMemo names a pass's results for the runner's result memo. A result
// is a pure function of the trace, the pass's conditional key, the RAS
// options and what the keys below describe, so two passes anywhere in one
// process that agree on all of them are simulated once.
type PassMemo struct {
	// Keys identifies the results. A shared pass has one key per indirect
	// predictor (its type and merged configuration), since its predictors
	// never exchange state; an exclusive pass has a single key covering
	// the whole pass, conditional configuration included. The runner adds
	// the trace identity, CondKey and the RAS options.
	Keys []string
	// Names lists the name each result is reported under, in result
	// order; memoised results are renamed to it when served.
	Names []string
	// FillOnly marks a pass that runs whatever the memo holds, because
	// its outputs read the instances it builds; it still records results.
	FillOnly bool
}

// Shared returns a Pass whose conditional configuration is shared under
// condKey: newCond builds the conditional predictor (only when the tape
// needs it) and f the indirect predictors.
func Shared(condKey string, newCond func() cond.Predictor, f func() []predictor.Indirect) Pass {
	return Pass{
		CondKey: condKey,
		NewCond: newCond,
		New:     func(int, []bool) (cond.Predictor, []predictor.Indirect) { return nil, f() },
	}
}

// Exclusive wraps a factory into a Pass that owns its conditional state.
func Exclusive(f PassFactory) Pass {
	return Pass{New: func(int, []bool) (cond.Predictor, []predictor.Indirect) { return f() }}
}

// WorkloadResult holds all predictor results for one workload.
type WorkloadResult struct {
	Spec    workload.Spec
	Results map[string]sim.Result // keyed by (unique) predictor name
}

// MPKI returns the indirect MPKI for the named predictor (0 if absent).
func (w WorkloadResult) MPKI(name string) float64 {
	return w.Results[name].IndirectMPKI()
}

// Runner is the suite-wide execution layer shared by every driver of one
// process: the trace cache and the work-stealing pool. Create one per
// process (or per experiment batch), run any number of drivers on it, and
// Close it when done.
type Runner struct {
	cache     *tracecache.Cache
	pool      *pool
	ownsCache bool
	memo      resultMemo
}

// NewRunner returns a Runner with workers worker goroutines (0 = GOMAXPROCS)
// and an unbounded private trace cache.
func NewRunner(workers int) *Runner {
	return NewRunnerConfig(workers, tracecache.Config{})
}

// NewRunnerConfig returns a Runner with workers worker goroutines over a
// private trace cache built from cfg, so callers can thread the cache's
// persistence options (byte budget, spill directory, KeepSpill) through
// the execution layer without managing the cache themselves. The cache is
// closed with the Runner; with cfg.KeepSpill that flushes the working set
// to cfg.SpillDir for a later process to warm-start from.
func NewRunnerConfig(workers int, cfg tracecache.Config) *Runner {
	r := NewRunnerCache(workers, tracecache.New(cfg))
	r.ownsCache = true
	return r
}

// NewRunnerCache returns a Runner over an externally owned trace cache,
// letting several runners (or a benchmark harness) share built traces.
func NewRunnerCache(workers int, cache *tracecache.Cache) *Runner {
	return &Runner{cache: cache, pool: newPool(workers), memo: resultMemo{cells: map[string]*memoCell{}}}
}

// Close stops the worker pool (and drops a private cache's entries).
func (r *Runner) Close() {
	r.pool.close()
	if r.ownsCache {
		r.cache.Close()
	}
}

// Cache exposes the trace cache (for counter reporting).
func (r *Runner) Cache() *tracecache.Cache { return r.cache }

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.pool.workers() }

// MemoStats returns the result memo's counters.
func (r *Runner) MemoStats() MemoStats { return r.memo.stats() }

// RunSuite simulates every pass over every spec. The run is decomposed
// into (workload × pass) tasks on the shared pool: each task fetches the
// workload's trace from the cache (building it at most once process-wide),
// obtains the shared tape, and replays its pass. A pass with a PassMemo
// simulates only the results the runner has not computed before; the rest
// are served from the memo, and a task they all come from touches no
// trace. Results are reassembled in deterministic spec/pass order, so the
// output is byte-for-byte independent of the worker count.
func (r *Runner) RunSuite(specs []workload.Spec, passes []Pass) ([]WorkloadResult, error) {
	res, err := r.RunSuites([][]workload.Spec{specs}, passes)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunSuites is RunSuite over several suites at once: every (suite ×
// workload × pass) task is submitted to the pool in a single wave, so
// multi-draw drivers (Seeds) keep all workers busy across draw boundaries
// instead of draining the pool between draws. Results are reassembled per
// suite in deterministic (suite, spec, pass) order.
func (r *Runner) RunSuites(suites [][]workload.Spec, passes []Pass) ([][]WorkloadResult, error) {
	if len(suites) == 0 {
		return nil, fmt.Errorf("experiments: no suites")
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("experiments: no passes")
	}
	type cell struct {
		res []sim.Result
		err error
	}
	offsets := make([]int, len(suites))
	total := 0
	for s, specs := range suites {
		if len(specs) == 0 {
			return nil, fmt.Errorf("experiments: no workloads")
		}
		offsets[s] = total
		total += len(specs) * len(passes)
	}
	cells := make([]cell, total)
	var wg sync.WaitGroup
	wg.Add(total)
	for s := range suites {
		specs, base := suites[s], offsets[s]
		for i := range specs {
			for j := range passes {
				c := &cells[base+i*len(passes)+j]
				spec, pass := specs[i], passes[j]
				w := i
				r.pool.submit(func() {
					defer wg.Done()
					c.res, c.err = r.runTask(spec, w, pass)
				})
			}
		}
	}
	wg.Wait()

	out := make([][]WorkloadResult, len(suites))
	for s := range suites {
		specs, base := suites[s], offsets[s]
		rows := make([]WorkloadResult, len(specs))
		for i := range specs {
			wr := WorkloadResult{Spec: specs[i], Results: make(map[string]sim.Result)}
			for j := range passes {
				c := &cells[base+i*len(passes)+j]
				if c.err != nil {
					return nil, fmt.Errorf("experiments: workload %s: %w", specs[i].Name, c.err)
				}
				for _, res := range c.res {
					if _, dup := wr.Results[res.Predictor]; dup {
						return nil, fmt.Errorf("experiments: workload %s: duplicate predictor name %q", specs[i].Name, res.Predictor)
					}
					wr.Results[res.Predictor] = res
				}
			}
			rows[i] = wr
		}
		out[s] = rows
	}
	return out, nil
}

// runOpts are the engine options every runner task simulates with.
var runOpts = sim.Options{}

// runTask computes one (workload × pass) cell. Without a memo it simulates
// the pass. With one, it claims the results nobody has computed or is
// computing, simulates only those, publishes them, and then collects the
// rest, waiting for results other tasks are computing. A task publishes
// everything it claimed before it waits on anything, so waits cannot form
// a cycle.
func (r *Runner) runTask(spec workload.Spec, w int, pass Pass) ([]sim.Result, error) {
	m := pass.Memo
	if m == nil {
		return r.simulate(spec, w, pass, nil)
	}
	id := spec.Identity()
	prefix := fmt.Sprintf("%q|%d|%d|%016x|%q|%+v|", id.Name, id.Seed, id.Instructions, id.Fingerprint, pass.CondKey, runOpts)
	keys := make([]string, len(m.Keys))
	for i, k := range m.Keys {
		keys[i] = prefix + k
	}
	if m.FillOnly {
		res, err := r.simulate(spec, w, pass, nil)
		if err == nil {
			r.memo.fill(keys, resultGroups(pass, res))
		}
		return res, err
	}
	cells, own := r.memo.claim(keys)
	var need []bool
	owned := 0
	for _, o := range own {
		if o {
			owned++
		}
	}
	if owned > 0 {
		if pass.CondKey != "" && owned < len(own) {
			need = own
		}
		res, err := r.simulate(spec, w, pass, need)
		var groups [][]sim.Result
		if err == nil {
			groups = resultGroups(pass, res)
		}
		r.memo.publish(keys, cells, own, groups, err)
		if err != nil {
			return nil, err
		}
	}
	return r.memo.collect(cells, own, m.Names)
}

// resultGroups splits a pass's results by memo key: one result per key on
// a shared pass, all of them under the single key of an exclusive one.
func resultGroups(pass Pass, res []sim.Result) [][]sim.Result {
	if pass.CondKey == "" {
		return [][]sim.Result{res}
	}
	groups := make([][]sim.Result, len(res))
	for i := range res {
		groups[i] = res[i : i+1]
	}
	return groups
}

// simulate runs a pass over the workload's tape; need (shared passes only)
// restricts it to the marked indirect predictors.
func (r *Runner) simulate(spec workload.Spec, w int, pass Pass, need []bool) ([]sim.Result, error) {
	tape, err := r.cache.Get(spec).Tape()
	if err != nil {
		return nil, err
	}
	cp, indirects := pass.New(w, need)
	if pass.CondKey == "" {
		return tape.Run("", cp, indirects, runOpts)
	}
	if need != nil {
		kept := indirects[:0:0]
		for i, ip := range indirects {
			if need[i] {
				kept = append(kept, ip)
			}
		}
		indirects = kept
	}
	return tape.RunShared(pass.CondKey, pass.NewCond, indirects, runOpts)
}

// AnalyzeSuite returns each spec's trace statistics in spec order. Both
// the traces and their statistics are memoized on the cache, so the
// characterization figures (Fig. 1/6/7) analyze each workload once between
// them.
func (r *Runner) AnalyzeSuite(specs []workload.Spec) []*trace.Stats {
	out := make([]*trace.Stats, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	for i := range specs {
		spec := specs[i]
		out2 := &out[i]
		r.pool.submit(func() {
			defer wg.Done()
			*out2 = r.cache.Get(spec).Stats()
		})
	}
	wg.Wait()
	return out
}

// RunSuite is the one-shot form: a private Runner with parallel workers
// (0 = GOMAXPROCS) serves the single call.
func RunSuite(specs []workload.Spec, passes []Pass, parallel int) ([]WorkloadResult, error) {
	r := NewRunner(parallel)
	defer r.Close()
	return r.RunSuite(specs, passes)
}

// AnalyzeSuite is the one-shot form of Runner.AnalyzeSuite.
func AnalyzeSuite(specs []workload.Spec, parallel int) []*trace.Stats {
	r := NewRunner(parallel)
	defer r.Close()
	return r.AnalyzeSuite(specs)
}

// named renames an indirect predictor so several instances of one type can
// run in a single pass (e.g. the Fig. 10 ablation's twelve BLBP variants).
type named struct {
	predictor.Indirect
	name string
}

func (n named) Name() string { return n.name }

// namedSpans is named over a predictor that consumes whole segments: the
// wrapper must forward predictor.SpanFeeder, or tape replay falls back to
// one OnCond/OnOther interface call per record.
type namedSpans struct {
	named
	spans predictor.SpanFeeder
}

func (n namedSpans) OnCondSpan(c *trace.Columns, start, end int) {
	n.spans.OnCondSpan(c, start, end)
}

func (n namedSpans) OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType) {
	n.spans.OnOtherSpan(c, start, end, bt)
}

// Rename wraps p under a unique name. The wrapper keeps p's span fast path
// (predictor.SpanFeeder) when p has one.
func Rename(p predictor.Indirect, name string) predictor.Indirect {
	n := named{Indirect: p, name: name}
	if sf, ok := p.(predictor.SpanFeeder); ok {
		return namedSpans{named: n, spans: sf}
	}
	return n
}
