// Package sim is the trace-driven simulation engine: the Go counterpart of
// the CBP-5 infrastructure the paper runs on (§4.2). It drives a
// conditional predictor and one or more indirect target predictors over a
// branch trace, routes returns to a return address stack, and accumulates
// per-class misprediction counts, reporting the paper's metric —
// mispredictions per kilo-instruction (MPKI).
package sim

import (
	"fmt"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/trace"
)

// Options tunes engine structures that are not under study.
type Options struct {
	// RASDepth sizes the return address stack (64 if zero).
	RASDepth int
}

func (o Options) rasDepth() int {
	if o.RASDepth <= 0 {
		return 64
	}
	return o.RASDepth
}

// Result accumulates one predictor's counts over one trace.
type Result struct {
	// Trace and Predictor identify the run.
	Trace     string
	Predictor string
	// Instructions is the total instruction count simulated.
	Instructions int64
	// Conditional branch counts (shared across indirect predictors run in
	// the same pass).
	CondBranches    int64
	CondMispredicts int64
	// Indirect jump/call counts for this predictor.
	IndirectBranches    int64
	IndirectMispredicts int64
	// NoPrediction counts indirect branches where the predictor had no
	// target to offer (a subset of IndirectMispredicts).
	NoPrediction int64
	// Return counts (RAS-predicted, shared across predictors).
	Returns           int64
	ReturnMispredicts int64
}

// IndirectMPKI returns indirect-target mispredictions per kilo-instruction,
// the paper's headline metric.
func (r Result) IndirectMPKI() float64 { return mpki(r.IndirectMispredicts, r.Instructions) }

// CondMPKI returns conditional mispredictions per kilo-instruction.
func (r Result) CondMPKI() float64 { return mpki(r.CondMispredicts, r.Instructions) }

// CondAccuracy returns the conditional predictor's accuracy in [0,1].
func (r Result) CondAccuracy() float64 {
	if r.CondBranches == 0 {
		return 0
	}
	return 1 - float64(r.CondMispredicts)/float64(r.CondBranches)
}

func mpki(mis, instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(mis) * 1000 / float64(instructions)
}

// instructionSize is the fixed instruction size convention shared with the
// workload generators: return addresses are call PC + 4.
const instructionSize = 4

// Run simulates one conditional predictor and a set of independent indirect
// predictors over the trace in a single pass, returning one Result per
// indirect predictor (in input order). All indirect predictors observe the
// identical event stream; conditional and return statistics are duplicated
// into every Result.
//
// Replay runs over the trace's columnar form (built and cached on first
// use; see trace.Columns) via RunColumns. Results are bit-identical to the
// record-slice reference loop the tests keep (records_test.go).
//
// VPC shares state with the conditional predictor, so a VPC instance must
// be the only indirect predictor in its pass and must be paired with its
// own *cond.HashedPerceptron as cp; see package vpc.
func Run(tr *trace.Trace, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	// Validate once up front (cached on the trace across passes) instead of
	// re-checking every record inside the hot loop; the columnar build then
	// inherits the validation.
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return RunColumns(tr.Columns(), cp, indirects, opts)
}

// RunColumns is the engine proper: Run over a columnar trace. Segments are
// replayed in order and every record within a segment in order, so each
// predictor observes exactly the interleaved event stream of the
// record-slice loop — only the per-record type switch and the
// cond.TargetTrainer assertion are hoisted to the segment level. Within
// conditional segments the per-record call sequence (predict, train, update
// history, feed indirects) is preserved verbatim: VPC and the consolidated
// predictor share state between the conditional and indirect sides, so the
// relative order of those calls is observable. The segment loop lives in
// runRange (resume.go), shared with the checkpoint/resume entry points so
// the interrupted and uninterrupted paths cannot drift.
func RunColumns(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if err := validateRun(cols, cp, indirects); err != nil {
		return nil, err
	}
	pr := &PausedRun{stack: ras.New(opts.rasDepth()), perPred: make([]Result, len(indirects))}
	runRange(cols, cp, indirects, pr, cols.Len())
	return finalize(cols, indirects, pr), nil
}

// RunOne is a convenience wrapper for a single indirect predictor.
func RunOne(tr *trace.Trace, cp cond.Predictor, ip predictor.Indirect, opts Options) (Result, error) {
	res, err := Run(tr, cp, []predictor.Indirect{ip}, opts)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}
