package cond

import (
	"math/rand"
	"testing"

	"blbp/internal/trace"
)

// BenchmarkHashedPerceptron times the tape side's per-branch contract
// (Predict, Train, UpdateHistory) on the default configuration, with an
// unconditional transfer every eighth branch. ns/op is per conditional
// branch. "loop" cycles through a 24-branch loop body, so path windows
// recur as they do in real code; "allmiss" draws fresh random PCs, so no
// path window repeats and every path-hash lookup misses the memo.
func BenchmarkHashedPerceptron(b *testing.B) {
	for _, tc := range []struct {
		name string
		loop int // loop body length; 0 = fresh random PCs
	}{{"loop", 24}, {"allmiss", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			const n = 1 << 14
			rng := rand.New(rand.NewSource(1))
			pcs := make([]uint64, n)
			taken := make([]bool, n)
			for i := range pcs {
				if tc.loop == 0 {
					pcs[i] = rng.Uint64()
				} else {
					pcs[i] = 0x400000 + uint64(i%tc.loop)*0x40
				}
				taken[i] = rng.Intn(4) != 0
			}
			h := NewHashedPerceptron(DefaultHPConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc, t := pcs[i&(n-1)], taken[i&(n-1)]
				h.Predict(pc)
				h.Train(pc, t)
				h.UpdateHistory(pc, t)
				if i&7 == 7 {
					h.OnOther(pc+4, pcs[(i+1)&(n-1)], trace.IndirectCall)
				}
			}
		})
	}
}
