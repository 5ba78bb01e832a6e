// Command blbpbench is the repository's end-to-end benchmark: it times the
// full-scale regeneration of the paper's headline and ablation results
// through the same public path cmd/experiments takes, checks every output,
// and, in a separate traced run, attributes the time to the layers the run
// crosses. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash blbpbench/run.sh --workload headline-cold --seed 1 --seconds 55 --trace 0
//
// Each rep runs in a fresh child process with one simulation worker. The
// last line of standard output is the run's result as one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one reported metric. The lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"acquire.generate_s", "s"},
	{"acquire.generate_records", "count"},
	{"acquire.decode_s", "s"},
	{"acquire.decode_mb", "MB"},
	{"acquire.builds", "count"},
	{"acquire.spill_loads", "count"},
	{"acquire.preload_hits", "count"},
	{"acquire.spill_errors", "count"},
	{"acquire.warm_hit_ratio", "ratio"},
	{"spill.write_s", "s"},
	{"spill.write_mb", "MB"},
	{"tape.build_s", "s"},
	{"tape.side_s", "s"},
	{"tape.cond_branches", "count"},
	{"tape.side_sims", "count"},
	{"tape.reuse_ratio", "ratio"},
	{"replay.blbp_s", "s"},
	{"replay.ittage_s", "s"},
	{"replay.btb_s", "s"},
	{"replay.blbp_ns_per_pred", "ns"},
	{"replay.predictions", "count"},
	{"replay.mispredicts", "count"},
	{"engine.vpc_s", "s"},
	{"engine.records", "count"},
	{"plan.assemble_s", "s"},
	{"plan.output_bytes", "bytes"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"trace.residual_s", "s"},
	{"trace.overhead_s", "s"},
}

// postSetupLayers are the layers whose self times make up the untraced
// wall_s − setup_s; trace.residual_s is what they leave uncovered.
var postSetupLayers = []string{
	"tape.side_s", "replay.blbp_s", "replay.ittage_s", "replay.btb_s",
	"engine.vpc_s", "plan.assemble_s", "spill.write_s",
}

// coverTolerance bounds |trace.residual_s| as a share of the untraced
// wall_s − setup_s. The verdict goes into the detail record and standard
// error, not into failed: the untraced and traced reps are different
// processes, and on a shared two-core host two reps ten seconds apart
// differ by up to 30%, so one traced run can miss by host noise alone. It
// is a statement about the accounting, not about the program's outputs.
const coverTolerance = 0.20

const (
	// minReps untraced reps are run even if they overrun --seconds, so
	// every median has at least three samples.
	minReps = 3
	// repBudget stops starting reps once the run has taken this long,
	// whatever --seconds says, so a run ends well inside three minutes.
	repBudget = 150 * time.Second
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		err = child(os.Args[2:])
	} else {
		err = drive(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blbpbench: %v\n", err)
		os.Exit(1)
	}
}

// repArgs is what a rep process needs to know.
type repArgs struct {
	workload, seed, root, dir, seeded, spans string
}

func (a repArgs) flags(mode string) []string {
	return []string{"-child", mode, "-workload", a.workload, "-seed", a.seed,
		"-root", a.root, "-dir", a.dir, "-seeded", a.seeded, "-spans", a.spans}
}

// child runs one rep (or the warm workload's seeding) and prints its
// result as JSON.
func child(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("-child needs a mode")
	}
	mode := args[0]
	var a repArgs
	fs := flag.NewFlagSet("blbpbench -child", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "")
	fs.StringVar(&a.seed, "seed", "", "")
	fs.StringVar(&a.root, "root", "", "")
	fs.StringVar(&a.dir, "dir", "", "")
	fs.StringVar(&a.seeded, "seeded", "", "")
	fs.StringVar(&a.spans, "spans", "", "")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, ok := lookupWorkload(a.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	resultsDir := filepath.Join(a.root, "results")
	var r *repResult
	var err error
	switch mode {
	case "seed":
		return seedSpill(a.seed, a.seeded)
	case "rep":
		r, err = runRep(w, a.seed, resultsDir, a.dir, a.seeded)
	case "traced":
		r, err = runTraced(w, a.seed, resultsDir, a.dir, a.seeded, a.spans)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// runChild runs one child process to completion and decodes its result.
func runChild(mode string, a repArgs) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, a.flags(mode)...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if mode == "seed" {
		return nil, nil
	}
	var r repResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child result: %w", mode, err)
	}
	return &r, nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repDetail is one rep's line of the run's detail record.
type repDetail struct {
	Kind        string   `json:"kind"`
	CalibMS     float64  `json:"calib_ms"`
	WallS       float64  `json:"wall_s,omitempty"`
	SetupS      float64  `json:"setup_s,omitempty"`
	TracedWallS float64  `json:"traced_wall_s,omitempty"`
	Digest      string   `json:"digest"`
	Notes       []string `json:"notes,omitempty"`
}

func drive(args []string) error {
	fs := flag.NewFlagSet("blbpbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: headline-cold or ablation-warm")
	seed := fs.String("seed", "", "suite draw, passed to the plans as their suite salt (empty: the committed draw)")
	seconds := fs.Int("seconds", 55, "measure for about this many seconds (at least three reps)")
	traceOn := fs.Int("trace", 0, "1: alternate untraced and traced reps and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookupWorkload(*wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wname)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "results", "overall.csv")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work := filepath.Join(root, ".bench_build", "blbpbench")
	for _, d := range []string{"runs", "spans"} {
		if err := os.MkdirAll(filepath.Join(work, d), 0o755); err != nil {
			return err
		}
	}
	runDir, err := os.MkdirTemp(filepath.Join(work, "runs"), w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	// The run's clock starts before seeding, so a warm run ends on the
	// same schedule as a cold one.
	start := time.Now()
	a := repArgs{workload: w.name, seed: *seed, root: root}
	if w.warm {
		// Seeded in its own process, untimed, so neither its time nor its
		// memory lands on a measured rep.
		a.seeded = filepath.Join(runDir, "seeded")
		if _, err := runChild("seed", a); err != nil {
			return err
		}
	}

	traced := *traceOn == 1
	deadline := time.Duration(*seconds) * time.Second
	var reps, tracedReps []*repResult
	var details []repDetail
	last := map[string]time.Duration{}
	for i := 0; ; i++ {
		mode := "rep"
		if traced && i%2 == 1 {
			mode = "traced"
		}
		a.dir = filepath.Join(runDir, fmt.Sprintf("rep-%d", i))
		a.spans = filepath.Join(work, "spans", fmt.Sprintf("%s-seed%s-%s-%d.jsonl", w.name, *seed, filepath.Base(runDir), i))
		t0 := time.Now()
		r, err := runChild(mode, a)
		if err != nil {
			return err
		}
		last[mode] = time.Since(t0)
		if err := os.RemoveAll(a.dir); err != nil {
			return err
		}
		details = append(details, repDetail{Kind: mode, CalibMS: r.CalibMS, WallS: r.WallS, SetupS: r.SetupS,
			TracedWallS: r.TracedWallS, Digest: r.Digest, Notes: r.Notes})
		if mode == "traced" {
			tracedReps = append(tracedReps, r)
		} else {
			reps = append(reps, r)
		}

		next := "rep"
		if traced && i%2 == 0 {
			next = "traced"
		}
		est, ok := last[next]
		if !ok {
			est = last[mode]
		}
		enough := len(reps) >= minReps
		if traced {
			enough = len(tracedReps) >= 1 && len(reps) >= len(tracedReps)
		}
		elapsed := time.Since(start)
		if enough && (elapsed+est > deadline || elapsed+est > repBudget) {
			break
		}
	}

	res := result{Metrics: map[string]metricOutput{}}
	all := append(append([]*repResult{}, reps...), tracedReps...)
	for _, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	// Every rep simulated the same inputs in a fresh process: the outputs
	// must not differ.
	res.Attempted++
	for _, r := range all[1:] {
		if r.Digest != all[0].Digest {
			res.Failed++
			fmt.Fprintf(os.Stderr, "blbpbench: reps disagree on the outputs (%s vs %s)\n", r.Digest, all[0].Digest)
			break
		}
	}

	var coverage map[string]any
	if traced {
		layer := layerOutput(reps, tracedReps)
		target := median(reps, func(r *repResult) float64 { return r.WallS - r.SetupS })
		share := layer["trace.residual_s"] / target
		coverage = map[string]any{"residual_share": share, "tolerance": coverTolerance, "within": math.Abs(share) <= coverTolerance}
		if math.Abs(share) > coverTolerance {
			fmt.Fprintf(os.Stderr, "blbpbench: layer self times leave %.1f%% of the untraced %.3f s uncovered (tolerance %.0f%%)\n",
				100*share, target, 100*coverTolerance)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOutput{Value: layer[m.name], Unit: m.unit}
		}
	} else {
		values := map[string]float64{
			"wall_s":       median(reps, func(r *repResult) float64 { return r.WallS }),
			"setup_s":      median(reps, func(r *repResult) float64 { return r.SetupS }),
			"minstr_per_s": median(reps, func(r *repResult) float64 { return r.Instr / 1e6 / (r.WallS - r.SetupS) }),
			"peak_rss_mb":  median(reps, func(r *repResult) float64 { return r.PeakRSSMB }),
			"ok_ratio":     1 - float64(res.Failed)/float64(res.Attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOutput{Value: values[m.name], Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0

	detail, err := json.Marshal(map[string]any{"detail": map[string]any{
		"workload": w.name, "seed": *seed, "trace": traced, "reps": details, "coverage": coverage,
	}})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerOutput assembles the per-layer metrics: the traced reps' layer
// metrics and the untraced reps' runtime counters, each a median across
// reps, and the two trace accounting metrics.
func layerOutput(reps, tracedReps []*repResult) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		name := m.name
		out[name] = median(tracedReps, func(r *repResult) float64 { return r.Layers[name] })
	}
	out["runtime.gc_cpu_s"] = median(reps, func(r *repResult) float64 { return r.GCCPUS })
	out["runtime.gc_cycles"] = median(reps, func(r *repResult) float64 { return r.GCCycles })
	out["runtime.alloc_mb"] = median(reps, func(r *repResult) float64 { return r.AllocMB })
	var post float64
	for _, name := range postSetupLayers {
		post += out[name]
	}
	out["trace.residual_s"] = median(reps, func(r *repResult) float64 { return r.WallS - r.SetupS }) - post
	out["trace.overhead_s"] = median(tracedReps, func(r *repResult) float64 { return r.TracedWallS }) -
		median(reps, func(r *repResult) float64 { return r.WallS })
	return out
}

// median returns the median of f over the reps.
func median(reps []*repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
