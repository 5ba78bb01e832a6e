// Command experiments regenerates every table and figure of the paper's
// evaluation over the synthetic workload suite.
//
// Usage:
//
//	experiments [flags] <experiment>...
//
// Experiments name built-in run plans: table1 table2 fig1 fig6 fig7 fig8
// fig9 fig10 fig11 overall holdout (the paper's tables and figures), plus
// the extensions extras, arrays, targetbits, combined, hierarchy, cottage,
// latency, seeds; "all" runs everything. Every built-in is an ordinary
// declarative plan — `-dumpplan <name>` prints its JSON, `-plan <file>`
// runs a (possibly edited) plan file through the identical execution path.
//
// Flags:
//
//	-base N         instruction base per SHORT trace (default 400000;
//	                SPEC traces run 1.5x, LONG traces 2x)
//	-parallel N     worker goroutines (default: GOMAXPROCS)
//	-csv DIR        also write each table as DIR/<output>.csv
//	-chart          render fig10/fig11 as ASCII bar charts too
//	-plan FILE      run the JSON run plan in FILE instead of built-ins
//	-dumpplan NAME  print the named built-in plan as JSON and exit
//	-workload-spec FILE
//	                register the workload spec(s) in FILE (one JSON object
//	                or an array) so plans can name them in suite "specs";
//	                repeatable
//	-dumpspec NAME  print the named built-in workload spec as JSON and exit
//	                (scaled by -base)
//	-list-workloads list every built-in workload spec name and exit
//	-list           list predictors, conditional substrates, outputs, and
//	                built-in plans, then exit
//	-cachemb N      bound the trace cache to ~N MiB, spilling evicted
//	                traces to disk (0 = unbounded, the default)
//	-cachespill DIR spill directory for the trace cache's persistent tier.
//	                Existing spill files in it warm-start the run: traces
//	                decode from disk instead of re-running the generators.
//	                Default: a per-process temp dir (created when -cachemb
//	                or -cachekeep asks for one), removed on exit unless
//	                -cachekeep
//	-cachekeep      keep the spill directory at exit, flushing every built
//	                trace and every new conditional-side count to it, so
//	                the next run warm-starts from it
//	-cachestats     print trace-cache, conditional-count and result-memo
//	                counters to stderr at the end
//	-cpuprofile F   write a CPU profile to F
//	-memprofile F   write an allocation profile to F at exit
//
// All experiments of one invocation share a single trace cache, worker
// pool, and plan executor, so each workload's trace is built exactly once
// and each predictor configuration is simulated once per trace, no matter
// how many plans reuse it (overall/fig8/fig9 share everything; fig11's
// assoc-64 and ITTAGE come from fig10).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/tracecache"
	"blbp/internal/wspec"
)

// stringList collects a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	base := fs.Int64("base", 400_000, "instruction base per SHORT trace")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "directory for CSV copies of each table")
	chart := fs.Bool("chart", false, "render fig10/fig11 results as ASCII bar charts too")
	planFile := fs.String("plan", "", "run the JSON run plan in this file")
	dumpPlan := fs.String("dumpplan", "", "print the named built-in plan as JSON and exit")
	var specFiles stringList
	fs.Var(&specFiles, "workload-spec", "register the workload spec(s) in this JSON file for plans to name (repeatable)")
	dumpSpec := fs.String("dumpspec", "", "print the named built-in workload spec as JSON and exit")
	listWorkloads := fs.Bool("list-workloads", false, "list every built-in workload spec name")
	list := fs.Bool("list", false, "list predictors, substrates, outputs, and built-in plans")
	cacheMB := fs.Int64("cachemb", 0, "trace-cache budget in MiB (0 = unbounded)")
	cacheSpill := fs.String("cachespill", "", "spill directory for the trace cache's persistent tier (default: per-process temp dir)")
	cacheKeep := fs.Bool("cachekeep", false, "keep the spill directory at exit for a later warm start")
	cacheStats := fs.Bool("cachestats", false, "print trace-cache, conditional-count and result-memo counters to stderr at the end")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		return printList(os.Stdout)
	}
	if *listWorkloads {
		for _, name := range wspec.Names() {
			fmt.Println(name)
		}
		return nil
	}
	if *dumpSpec != "" {
		ws, ok := wspec.Lookup(*dumpSpec, *base)
		if !ok {
			return fmt.Errorf("unknown workload %q (see -list-workloads)", *dumpSpec)
		}
		out, err := ws.Encode()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if *dumpPlan != "" {
		plan, ok := runspec.Builtin(*dumpPlan)
		if !ok {
			return fmt.Errorf("unknown plan %q (built-ins: %v)", *dumpPlan, runspec.BuiltinNames())
		}
		out, err := plan.Encode()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}

	var plans []*runspec.Plan
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			return err
		}
		plan, err := runspec.Decode(data)
		if err != nil {
			return fmt.Errorf("plan %s: %v", *planFile, err)
		}
		plans = append(plans, plan)
	}
	names := fs.Args()
	if len(names) == 0 && len(plans) == 0 {
		names = []string{"all"}
	}
	if len(names) == 1 && names[0] == "all" {
		names = runspec.BuiltinNames()
	}
	for _, name := range names {
		plan, ok := runspec.Builtin(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (see -list)", name)
		}
		plans = append(plans, plan)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	// The documented -cachespill default: a per-process temp dir, created
	// whenever something needs a spill tier (-cachemb evictions, -cachekeep
	// persistence) and removed on exit unless -cachekeep.
	spillDir := *cacheSpill
	spillIsTemp := false
	if spillDir == "" && (*cacheMB > 0 || *cacheKeep) {
		dir, err := os.MkdirTemp("", "blbp-spill-")
		if err != nil {
			return fmt.Errorf("creating default spill dir: %w", err)
		}
		spillDir = dir
		spillIsTemp = true
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return fmt.Errorf("spill directory %s: %w", spillDir, err)
		}
	}
	cacheCfg := tracecache.Config{SpillDir: spillDir, KeepSpill: *cacheKeep}
	if *cacheMB > 0 {
		cacheCfg.MaxBytes = *cacheMB << 20
	}
	runner := experiments.NewRunnerConfig(*parallel, cacheCfg)
	cache := runner.Cache()
	// Registered before runner.Close so it runs after it: the KeepSpill
	// flush (traces and conditional counts) happens inside Close, and its
	// errors and writes must still be reported.
	var atClose tracecache.Stats // the counters just before Close empties the cache
	defer func() {
		if *cacheStats {
			st := cache.Stats()
			st.LiveBytes = atClose.LiveBytes
			fmt.Fprintf(os.Stderr, "trace cache: %s\n", st)
			m := runner.MemoStats()
			fmt.Fprintf(os.Stderr, "result memo: %d hits, %d stored\n", m.Hits, m.Stored)
		}
		if n := cache.Stats().SpillErrors; n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: WARNING: %d trace-cache spill error(s); some traces were rebuilt or not persisted (details on first occurrence above)\n", n)
		}
		if spillIsTemp {
			if *cacheKeep {
				fmt.Fprintf(os.Stderr, "experiments: spill directory kept at %s (reuse with -cachespill)\n", spillDir)
			} else {
				os.RemoveAll(spillDir)
			}
		}
	}()
	defer runner.Close()
	defer func() { atClose = cache.Stats() }()

	exec := runspec.NewExec(runner, *base)
	for _, file := range specFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		specs, err := wspec.DecodeAll(data)
		if err != nil {
			return fmt.Errorf("workload spec %s: %v", file, err)
		}
		for _, ws := range specs {
			if err := exec.RegisterWorkload(ws); err != nil {
				return fmt.Errorf("workload spec %s: %v", file, err)
			}
		}
	}
	for _, plan := range plans {
		outs, err := exec.Run(plan)
		if err != nil {
			return err
		}
		for _, out := range outs {
			if err := out.Table.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			if *chart && out.Chart != nil {
				if err := out.Chart.WriteText(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, out); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeCSV(dir string, out runspec.RenderedOutput) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, out.File+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return out.Table.WriteCSV(f)
}

// printList enumerates everything a plan can reference.
func printList(w *os.File) error {
	fmt.Fprintln(w, "Predictors (plan \"type\" values):")
	for _, e := range predictor.Entries() {
		fmt.Fprintf(w, "  %-12s %-12s %s\n", e.Name, "("+e.Kind()+")", e.Doc)
		fmt.Fprintf(w, "  %-12s default: %s\n", "", e.DefaultJSON())
	}
	fmt.Fprintln(w, "\nConditional substrates (plan \"cond\" values):")
	for _, c := range runspec.CondEntries() {
		fmt.Fprintf(w, "  %-18s %s\n", c.Name, c.Doc)
		fmt.Fprintf(w, "  %-18s default: %s\n", "", c.DefaultJSON)
	}
	fmt.Fprintln(w, "\nOutputs (plan \"table\" values):")
	for _, o := range runspec.OutputInfos() {
		fmt.Fprintf(w, "  %-12s %s\n", o.Name, o.Doc)
	}
	fmt.Fprintln(w, "\nBuilt-in plans (dump one with -dumpplan <name>):")
	for _, name := range runspec.BuiltinNames() {
		plan, _ := runspec.Builtin(name)
		fmt.Fprintf(w, "  %-12s %s\n", name, plan.Doc)
	}
	return nil
}
