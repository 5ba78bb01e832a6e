package sim

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/trace"
)

// Tape is the shared, replayable side of simulating one trace. Everything a
// pass observes that is a function of the trace alone — per-record
// instruction counts, the conditional outcome stream, the RAS push/pop
// sequence — is identical across every pass over that trace, so the tape
// precomputes it once: the aggregate totals at construction, the
// return-stack misprediction count once per RAS depth, and the conditional
// predictor's misprediction count once per conditional configuration key.
// Passes that declare a shared conditional configuration then replay the
// tape, driving only their indirect predictors over the record stream,
// instead of re-simulating the conditional and return sides. A tape with a
// CondStore also reads conditional counts an earlier process persisted,
// and simulates only the ones it cannot find there.
//
// The tape replays the trace's columnar form (trace.Columns): its loops run
// segment by segment, skipping classes a memo does not observe and feeding
// predictors whole same-class runs at a time.
//
// A Tape is safe for concurrent use: the scheduler runs many passes of the
// same workload at once and they all share one tape.
type Tape struct {
	cols  *trace.Columns
	store CondStore // nil: counts live in this tape only

	mu   sync.Mutex
	ras  map[int]*rasMemo
	cond map[string]*condMemo
}

// condMemo memoizes one conditional configuration's misprediction count.
// Once gives single-flight semantics: concurrent passes over the same key
// block until the first has simulated the conditional side, then share it.
type condMemo struct {
	once        sync.Once
	mispredicts int64
}

type rasMemo struct {
	once        sync.Once
	mispredicts int64
}

// NewTape validates the trace and builds (or reuses) its columnar form. The
// conditional and RAS sides are filled in lazily on first use.
func NewTape(tr *trace.Trace) (*Tape, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return NewTapeColumns(tr.Columns())
}

// NewTapeColumns builds a tape directly over a columnar trace. The
// pass-invariant totals are read from the columns' precomputed counts, so
// construction is O(1) after validation.
func NewTapeColumns(cols *trace.Columns) (*Tape, error) {
	if cols == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := cols.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Tape{cols: cols, ras: make(map[int]*rasMemo), cond: make(map[string]*condMemo)}, nil
}

// Columns returns the underlying columnar trace (shared; callers must not
// mutate it).
func (tp *Tape) Columns() *trace.Columns { return tp.cols }

// Instructions returns the trace's total instruction count.
func (tp *Tape) Instructions() int64 { return tp.cols.Instructions() }

// SetCondStore attaches the store the tape consults before it simulates a
// conditional configuration, and records new counts in. Call it before
// the tape is shared.
func (tp *Tape) SetCondStore(s CondStore) { tp.store = s }

// condMispredicts returns the misprediction count of the conditional
// configuration named by key. On the key's first use it asks the tape's
// store, and only on a miss builds a predictor with newCond and simulates
// it over the trace. saltCond builds the fresh instance the store's code
// salt needs (nil: the store is bypassed). Callers guarantee that every
// constructor arriving under one key builds the identical configuration.
func (tp *Tape) condMispredicts(key string, newCond, saltCond func() cond.Predictor) int64 {
	tp.mu.Lock()
	m := tp.cond[key]
	if m == nil {
		m = &condMemo{}
		tp.cond[key] = m
	}
	tp.mu.Unlock()
	m.once.Do(func() {
		salt := func() (uint64, bool) {
			if saltCond == nil {
				return 0, false
			}
			return CondSalt(key, saltCond), true
		}
		if tp.store != nil {
			if n, ok := tp.store.LoadCond(key, salt); ok {
				m.mispredicts = n
				return
			}
		}
		m.mispredicts = tp.simulateCond(newCond())
		if tp.store != nil {
			tp.store.SaveCond(key, salt, m.mispredicts)
		}
	})
	return m.mispredicts
}

// simulateCond drives the conditional predictor over the trace exactly as
// Run does — same call sequence, no indirect predictors — and returns its
// misprediction count. Segments hoist the class dispatch; per-record order
// within and across segments is the trace order.
func (tp *Tape) simulateCond(cp cond.Predictor) int64 {
	tt, hasTT := cp.(cond.TargetTrainer)
	pc, target := tp.cols.PC(), tp.cols.Target()
	var mis int64
	for _, seg := range tp.cols.Segments() {
		if seg.Type == trace.CondDirect {
			for i := seg.Start; i < seg.End; i++ {
				taken := tp.cols.Taken(i)
				if cp.Predict(pc[i]) != taken {
					mis++
				}
				if hasTT {
					tt.TrainWithTarget(pc[i], taken, target[i])
				} else {
					cp.Train(pc[i], taken)
				}
				cp.UpdateHistory(pc[i], taken)
			}
		} else {
			for i := seg.Start; i < seg.End; i++ {
				cp.OnOther(pc[i], target[i], seg.Type)
			}
		}
	}
	return mis
}

// returnMispredicts returns the RAS misprediction count at the given stack
// depth, replaying the trace's call/return sequence on the depth's first
// use. Only call and return segments are visited; the (dominant)
// conditional and jump segments are skipped whole.
func (tp *Tape) returnMispredicts(depth int) int64 {
	tp.mu.Lock()
	m := tp.ras[depth]
	if m == nil {
		m = &rasMemo{}
		tp.ras[depth] = m
	}
	tp.mu.Unlock()
	m.once.Do(func() {
		stack := ras.New(depth)
		pc, target := tp.cols.PC(), tp.cols.Target()
		var mis int64
		for _, seg := range tp.cols.Segments() {
			switch seg.Type {
			case trace.DirectCall, trace.IndirectCall:
				for i := seg.Start; i < seg.End; i++ {
					stack.Push(pc[i] + instructionSize)
				}
			case trace.Return:
				for i := seg.Start; i < seg.End; i++ {
					if !stack.Predict(target[i]) {
						mis++
					}
				}
			}
		}
		m.mispredicts = mis
	})
	return m.mispredicts
}

// Run simulates one pass over the tape's trace. A non-empty condKey names
// the pass's conditional predictor configuration: the conditional and
// return-stack sides are then sourced from the tape (simulated once per
// key and depth, shared by every pass that declares them) and only the
// indirect predictors replay the record stream. With condKey == "" the pass
// owns conditional state — VPC and the consolidated predictor share state
// between the two sides — and the full engine runs instead.
//
// Every caller passing the same condKey must construct cp identically
// (sim.CondKey gives the canonical key); cp is simulated only when the
// tape has no count for the key yet, and is discarded otherwise. Results
// are bit-identical to Run because the conditional predictor, the
// RAS, and the indirect predictors never exchange state within a pass. The
// same independence makes the segment-level loop interchange here legal:
// each indirect predictor consumes a whole segment before the next
// predictor starts it, which cannot be observed when predictors share
// nothing. Predictors implementing predictor.SpanFeeder consume segments
// through one call instead of one interface call per record.
func (tp *Tape) Run(condKey string, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if condKey == "" {
		return RunColumns(tp.cols, cp, indirects, opts)
	}
	if cp == nil {
		return nil, fmt.Errorf("sim: nil conditional predictor")
	}
	return tp.replay(condKey, func() cond.Predictor { return cp }, registeredCond(condKey), indirects, opts)
}

// RunShared is Run for a pass whose conditional configuration is shared
// under condKey, with a constructor in place of a built predictor: the tape
// calls newCond only when it has to simulate the conditional side, so a
// pass whose count is memoised or persisted builds no conditional
// predictor at all.
func (tp *Tape) RunShared(condKey string, newCond func() cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if condKey == "" {
		return nil, fmt.Errorf("sim: shared pass without a conditional key")
	}
	if newCond == nil {
		return nil, fmt.Errorf("sim: nil conditional predictor constructor")
	}
	return tp.replay(condKey, newCond, newCond, indirects, opts)
}

// replay is the shared-pass body of Run and RunShared.
func (tp *Tape) replay(condKey string, newCond, saltCond func() cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if len(indirects) == 0 {
		return nil, fmt.Errorf("sim: no indirect predictors")
	}
	condMis := tp.condMispredicts(condKey, newCond, saltCond)
	retMis := tp.returnMispredicts(opts.rasDepth())

	perPred := make([]Result, len(indirects))
	pc, target := tp.cols.PC(), tp.cols.Target()
	spans := make([]predictor.SpanFeeder, len(indirects))
	for i, ip := range indirects {
		if sf, ok := ip.(predictor.SpanFeeder); ok {
			spans[i] = sf
		}
	}
	for _, seg := range tp.cols.Segments() {
		switch seg.Type {
		case trace.CondDirect:
			for j, ip := range indirects {
				if spans[j] != nil {
					spans[j].OnCondSpan(tp.cols, seg.Start, seg.End)
					continue
				}
				for i := seg.Start; i < seg.End; i++ {
					ip.OnCond(pc[i], tp.cols.Taken(i))
				}
			}
		case trace.IndirectJump, trace.IndirectCall:
			for j, ip := range indirects {
				var branches, mispredicts, noPred int64
				for i := seg.Start; i < seg.End; i++ {
					branches++
					pred, ok := ip.Predict(pc[i])
					if !ok {
						noPred++
						mispredicts++
					} else if pred != target[i] {
						mispredicts++
					}
					ip.Update(pc[i], target[i])
				}
				perPred[j].IndirectBranches += branches
				perPred[j].IndirectMispredicts += mispredicts
				perPred[j].NoPrediction += noPred
			}
		default: // Return, DirectCall, UncondDirect
			for j, ip := range indirects {
				if spans[j] != nil {
					spans[j].OnOtherSpan(tp.cols, seg.Start, seg.End, seg.Type)
					continue
				}
				for i := seg.Start; i < seg.End; i++ {
					ip.OnOther(pc[i], target[i], seg.Type)
				}
			}
		}
	}

	for i, ip := range indirects {
		perPred[i].Trace = tp.cols.Name
		perPred[i].Predictor = ip.Name()
		perPred[i].Instructions = tp.cols.Instructions()
		perPred[i].CondBranches = tp.cols.Count(trace.CondDirect)
		perPred[i].CondMispredicts = condMis
		perPred[i].Returns = tp.cols.Count(trace.Return)
		perPred[i].ReturnMispredicts = retMis
	}
	return perPred, nil
}
