package experiments

import (
	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/vpc"
)

// Canonical predictor names used across all experiments.
const (
	NameBTB    = "btb"
	NameVPC    = "vpc"
	NameITTAGE = "ittage"
	NameBLBP   = "blbp"
)

// Conditional configuration keys (see Pass.CondKey): the canonical keys
// (sim.CondKey) of the two default substrates. Every pass declaring one of
// these must construct exactly the predictor the key names, so the
// tape-cached conditional simulation is interchangeable across passes and
// drivers, and persists across processes in a spill directory's count
// index. Both are registered with sim.RegisterCond, so a Tape.Run caller
// that hands the tape a built predictor still gets persisted counts.
var (
	// CondKeyHP is cond.NewHashedPerceptron(cond.DefaultHPConfig()).
	CondKeyHP = sim.CondKey("hashed-perceptron", cond.DefaultHPConfig())
	// CondKeyTAGE is cond.NewTAGE(cond.DefaultTAGEConfig()).
	CondKeyTAGE = sim.CondKey("tage", cond.DefaultTAGEConfig())
)

func init() {
	sim.RegisterCond(CondKeyHP, newHP)
	sim.RegisterCond(CondKeyTAGE, newTAGE)
}

// newHP builds the default hashed perceptron, the conditional predictor
// behind CondKeyHP.
func newHP() cond.Predictor { return cond.NewHashedPerceptron(cond.DefaultHPConfig()) }

// newTAGE builds the default TAGE, the conditional predictor behind
// CondKeyTAGE.
func newTAGE() cond.Predictor { return cond.NewTAGE(cond.DefaultTAGEConfig()) }

// StandardPasses returns the paper's Table 2 predictor line-up as engine
// passes: one pass with the BTB baseline, ITTAGE, and BLBP sharing a hashed
// perceptron conditional predictor, and a second pass for VPC, which must
// own (and pollute) its conditional predictor.
func StandardPasses() []Pass {
	return []Pass{
		Shared(CondKeyHP, newHP, func() []predictor.Indirect {
			return []predictor.Indirect{
				btb.NewIndirect(btb.Default32K()),
				ittage.New(ittage.DefaultConfig()),
				core.New(core.DefaultConfig()),
			}
		}),
		VPCPass(),
	}
}

// VPCPass returns the VPC pass: VPC shares the pass's hashed perceptron,
// so the pass owns its conditional state and is never tape-shared.
func VPCPass() Pass {
	return Exclusive(func() (cond.Predictor, []predictor.Indirect) {
		hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		return hp, []predictor.Indirect{vpc.New(vpc.DefaultConfig(), hp)}
	})
}

// ITTAGEPass returns a pass containing only ITTAGE (used as the reference
// in the ablation and associativity sweeps).
func ITTAGEPass() Pass {
	return Shared(CondKeyHP, newHP, func() []predictor.Indirect {
		return []predictor.Indirect{ittage.New(ittage.DefaultConfig())}
	})
}

// BLBPVariantsPasses returns one pass per BLBP configuration, each under
// its variant name. One pass per variant — rather than one pass carrying
// every variant — lets the scheduler run a sweep's arms as independent
// (workload × pass) tasks; the shared conditional side is simulated once
// per workload on the tape either way, so the decomposition changes
// nothing about the results.
func BLBPVariantsPasses(variants []BLBPVariant) []Pass {
	passes := make([]Pass, len(variants))
	for i, v := range variants {
		passes[i] = Shared(CondKeyHP, newHP, func() []predictor.Indirect {
			return []predictor.Indirect{Rename(core.New(v.Config), v.Name)}
		})
	}
	return passes
}

// BLBPVariant names one BLBP configuration.
type BLBPVariant struct {
	Name   string
	Config core.Config
}
