package sim

import (
	"fmt"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/trace"
)

// RunRecords is the record-slice reference engine: the original per-record
// loop over tr.Records, kept verbatim (modulo the hoisted TargetTrainer
// assertion) as the differential baseline for the columnar path —
// FuzzColumnarEquivalence, TestColumnarEquivalenceSeeds and the records arm
// of BenchmarkSimRun compare against it.
func RunRecords(tr *trace.Trace, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if cp == nil {
		return nil, fmt.Errorf("sim: nil conditional predictor")
	}
	if len(indirects) == 0 {
		return nil, fmt.Errorf("sim: no indirect predictors")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	stack := ras.New(opts.rasDepth())
	var shared Result
	perPred := make([]Result, len(indirects))
	tt, hasTT := cp.(cond.TargetTrainer)

	for ri := range tr.Records {
		r := &tr.Records[ri]
		shared.Instructions += r.Instructions()

		switch r.Type {
		case trace.CondDirect:
			shared.CondBranches++
			pred := cp.Predict(r.PC)
			if pred != r.Taken {
				shared.CondMispredicts++
			}
			if hasTT {
				tt.TrainWithTarget(r.PC, r.Taken, r.Target)
			} else {
				cp.Train(r.PC, r.Taken)
			}
			cp.UpdateHistory(r.PC, r.Taken)
			for _, ip := range indirects {
				ip.OnCond(r.PC, r.Taken)
			}

		case trace.IndirectJump, trace.IndirectCall:
			for i, ip := range indirects {
				perPred[i].IndirectBranches++
				pred, ok := ip.Predict(r.PC)
				if !ok {
					perPred[i].NoPrediction++
					perPred[i].IndirectMispredicts++
				} else if pred != r.Target {
					perPred[i].IndirectMispredicts++
				}
				ip.Update(r.PC, r.Target)
			}
			if r.Type == trace.IndirectCall {
				stack.Push(r.PC + instructionSize)
			}
			cp.OnOther(r.PC, r.Target, r.Type)

		case trace.Return:
			shared.Returns++
			if !stack.Predict(r.Target) {
				shared.ReturnMispredicts++
			}
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}

		case trace.DirectCall:
			stack.Push(r.PC + instructionSize)
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}

		case trace.UncondDirect:
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}
		}
	}

	for i, ip := range indirects {
		perPred[i].Trace = tr.Name
		perPred[i].Predictor = ip.Name()
		perPred[i].Instructions = shared.Instructions
		perPred[i].CondBranches = shared.CondBranches
		perPred[i].CondMispredicts = shared.CondMispredicts
		perPred[i].Returns = shared.Returns
		perPred[i].ReturnMispredicts = shared.ReturnMispredicts
	}
	return perPred, nil
}
