// Package runspec is the declarative experiment layer: a JSON-serializable
// RunPlan names a workload suite, a set of simulation passes (predictors by
// registry name with config overrides), and the tables to assemble from the
// results. One generic executor (Exec) drives experiments.Runner for every
// plan, so experiments are data — every built-in driver of cmd/experiments
// is a plan here, and user plans run the same path via `experiments -plan`.
//
// The layer sits on top of internal/experiments (the execution machinery
// and the paper's pass/variant definitions) and internal/predictor (the
// configurable registry). Assembled outputs are byte-identical to the
// bespoke drivers they replaced; the determinism rules of
// internal/analysis apply to this package.
package runspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"blbp/internal/predictor"
)

// Plan is one declarative experiment: which suite to simulate, which
// passes to run over it, and which outputs to assemble from the results.
type Plan struct {
	// Name identifies the plan (and defaults the CSV file name of outputs
	// that don't set one).
	Name string `json:"name"`
	// Doc is a one-line description shown by -list.
	Doc string `json:"doc,omitempty"`
	// Suite selects and scales the workload population.
	Suite Suite `json:"suite"`
	// Passes lists the simulation passes. Plans whose outputs are pure
	// workload characterizations (table1, fig1, ...) may omit them.
	Passes []Pass `json:"passes,omitempty"`
	// Outputs names the tables to assemble, in emission order.
	Outputs []Output `json:"outputs"`
}

// Suite selects the workload population of a plan.
type Suite struct {
	// Kind is "standard" (the 88-workload paper suite, the default) or
	// "holdout" (the 12-workload CBP-4 analog).
	Kind string `json:"kind,omitempty"`
	// Base is the per-SHORT-trace instruction budget; 0 defers to the
	// executor's default (the CLI's -base flag).
	Base int64 `json:"base,omitempty"`
	// Salts lists independently seeded draws of the standard suite; empty
	// means the single default draw. Each salt re-seeds every workload
	// (same names and parameters, different random content).
	Salts []string `json:"salts,omitempty"`
	// Workloads restricts the suite to the named workloads (in suite
	// order); empty means all.
	Workloads []string `json:"workloads,omitempty"`
	// Specs lists the population explicitly as workload specs — registry
	// names (built-in or session-registered) and/or inline
	// wspec.WorkloadSpec objects, simulated in list order as one draw.
	// Mutually exclusive with Kind, Salts, and Workloads; Base still scales
	// named built-in entries.
	Specs []SuiteSpec `json:"specs,omitempty"`
}

// Pass is one simulation pass: a conditional predictor substrate and the
// indirect predictors sharing it.
type Pass struct {
	// Cond names the conditional predictor substrate (see CondNames);
	// empty means "hashed-perceptron".
	Cond string `json:"cond,omitempty"`
	// CondConfig overrides the substrate's default configuration. The
	// tape-sharing key is the substrate plus the merged configuration
	// (sim.CondKey), so a pass whose overrides change the configuration
	// never reuses the default substrate's cached conditional simulation.
	CondConfig json.RawMessage `json:"cond_config,omitempty"`
	// Predictors lists the pass's indirect predictors.
	Predictors []PredictorSpec `json:"predictors"`
}

// PredictorSpec instantiates one registered predictor inside a pass.
type PredictorSpec struct {
	// Type is the predictor registry name (see predictor.Names).
	Type string `json:"type"`
	// Name renames the instance in results (required when one pass — or
	// one plan — runs several instances of a type, e.g. a config sweep).
	Name string `json:"name,omitempty"`
	// Config overrides fields of the type's default configuration
	// (merged field-for-field; unknown fields are rejected).
	Config json.RawMessage `json:"config,omitempty"`
}

// Output names one table to assemble from the plan's results.
type Output struct {
	// Table is the registered output name (see OutputNames).
	Table string `json:"table"`
	// File is the CSV base name (no extension); empty defaults to Table.
	File string `json:"file,omitempty"`
}

// Decode parses and validates a plan from JSON. Unknown fields anywhere in
// the document are rejected.
func Decode(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("runspec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("runspec: trailing data after plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Encode renders the plan as indented JSON (the -dumpplan format).
func (p *Plan) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runspec: %v", err)
	}
	return append(b, '\n'), nil
}

// Validate checks the plan's static structure: names resolve against the
// predictor, conditional-substrate, and output registries, config
// overrides parse against their defaults, and structural constraints hold
// (consolidated predictors own their pass, probe-collecting outputs run on
// a single draw, display names are unique).
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("runspec: plan needs a name")
	}
	if err := p.Suite.validate(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for pi, pass := range p.Passes {
		if len(pass.Predictors) == 0 {
			return fmt.Errorf("runspec: pass %d has no predictors", pi)
		}
		ce, ok := lookupCond(condNameOrDefault(pass.Cond))
		if !ok {
			return fmt.Errorf("runspec: pass %d: unknown conditional substrate %q (have %s)",
				pi, pass.Cond, strings.Join(CondNames(), ", "))
		}
		if _, err := ce.config(pass.CondConfig); err != nil {
			return fmt.Errorf("runspec: pass %d: %v", pi, err)
		}
		providers := 0
		for si, spec := range pass.Predictors {
			e, ok := predictor.Lookup(spec.Type)
			if !ok {
				return fmt.Errorf("runspec: pass %d predictor %d: unknown type %q (have %s)",
					pi, si, spec.Type, strings.Join(predictor.Names(), ", "))
			}
			if _, err := e.Config(spec.Config); err != nil {
				return fmt.Errorf("runspec: pass %d predictor %d: %v", pi, si, err)
			}
			if e.NewProvider != nil {
				providers++
			}
			name := spec.Name
			if name == "" {
				name = e.ResultName
			}
			if seen[name] {
				return fmt.Errorf("runspec: duplicate predictor name %q; set a unique \"name\" on each instance", name)
			}
			seen[name] = true
		}
		if providers > 0 {
			if len(pass.Predictors) != 1 {
				return fmt.Errorf("runspec: pass %d: a consolidated predictor must be the pass's only predictor", pi)
			}
			if pass.Cond != "" || len(pass.CondConfig) > 0 {
				return fmt.Errorf("runspec: pass %d: a consolidated predictor provides the conditional predictor; drop \"cond\"", pi)
			}
		}
	}
	if len(p.Outputs) == 0 {
		return fmt.Errorf("runspec: plan has no outputs")
	}
	for _, out := range p.Outputs {
		oe, ok := lookupOutput(out.Table)
		if !ok {
			return fmt.Errorf("runspec: unknown output table %q (have %s)",
				out.Table, strings.Join(OutputNames(), ", "))
		}
		if oe.needsPasses && len(p.Passes) == 0 {
			return fmt.Errorf("runspec: output %q needs simulation passes, plan has none", out.Table)
		}
		if oe.needsProbes && p.Suite.draws() > 1 {
			return fmt.Errorf("runspec: output %q collects per-instance probes and runs on a single suite draw", out.Table)
		}
		if strings.ContainsAny(out.File, "/\\") {
			return fmt.Errorf("runspec: output file %q must be a bare name", out.File)
		}
	}
	return nil
}

func (s Suite) validate() error {
	if len(s.Specs) > 0 {
		if err := s.validateSpecs(); err != nil {
			return err
		}
		if s.Base < 0 {
			return fmt.Errorf("runspec: negative suite base")
		}
		return nil
	}
	switch s.Kind {
	case "", "standard":
	case "holdout":
		if s.draws() > 1 || (len(s.Salts) == 1 && s.Salts[0] != "") {
			return fmt.Errorf("runspec: seeded draws are defined for the standard suite only")
		}
	default:
		return fmt.Errorf("runspec: unknown suite kind %q (want \"standard\" or \"holdout\")", s.Kind)
	}
	if s.Base < 0 {
		return fmt.Errorf("runspec: negative suite base")
	}
	return nil
}

// draws returns the number of suite draws the plan simulates.
func (s Suite) draws() int {
	if len(s.Salts) == 0 {
		return 1
	}
	return len(s.Salts)
}

// displayName returns the name a spec's results appear under.
func displayName(spec PredictorSpec) string {
	if spec.Name != "" {
		return spec.Name
	}
	if e, ok := predictor.Lookup(spec.Type); ok {
		return e.ResultName
	}
	return spec.Type
}
