package sim

import (
	"testing"

	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/vpc"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// BenchmarkSimRun drives one full engine pass (hashed perceptron + BLBP)
// over the same mixed trace through both replay representations, so the
// record-slice reference loop and the class-segmented columnar loop are
// compared head to head on identical predictions. ns/op is per record.
func BenchmarkSimRun(b *testing.B) {
	const nRec = 1 << 16
	tr := genEquivTrace(1234, nRec, 0x62)
	if err := tr.Validate(); err != nil {
		b.Fatal(err)
	}
	cols := tr.Columns()
	pass := func() (cond.Predictor, []predictor.Indirect) {
		return cond.NewHashedPerceptron(cond.DefaultHPConfig()),
			[]predictor.Indirect{core.New(core.DefaultConfig())}
	}
	b.Run("records", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i += nRec {
			cp, ips := pass()
			if _, err := RunRecords(tr, cp, ips, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i += nRec {
			cp, ips := pass()
			if _, err := RunColumns(cols, cp, ips, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVPC drives the full engine with VPC over one suite workload:
// VPC and the engine share one hashed perceptron, so every conditional
// branch and every virtual-PC walk runs the perceptron kernel. ns/op is
// per trace record.
func BenchmarkVPC(b *testing.B) {
	spec, ok := workload.ByName("400.perlbench-1", wspec.Suite(60000))
	if !ok {
		b.Fatal("workload 400.perlbench-1 missing from the suite")
	}
	cols := spec.BuildColumns()
	n := cols.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		if _, err := RunColumns(cols, hp, []predictor.Indirect{vpc.New(vpc.DefaultConfig(), hp)}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
