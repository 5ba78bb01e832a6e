package vpc

import (
	"bytes"
	"math/rand"
	"testing"

	"blbp/internal/cond"
	"blbp/internal/trace"
)

func newVPC() *VPC {
	return New(DefaultConfig(), cond.NewHashedPerceptron(cond.DefaultHPConfig()))
}

func lateMispredicts(p *VPC, targets []uint64, condDriver func(i int)) int {
	mis := 0
	start := len(targets) * 3 / 4
	for i, tgt := range targets {
		if condDriver != nil {
			condDriver(i)
		}
		pred, ok := p.Predict(0x400100)
		if (!ok || pred != tgt) && i >= start {
			mis++
		}
		p.Update(0x400100, tgt)
	}
	return mis
}

func TestMonomorphicConverges(t *testing.T) {
	p := newVPC()
	targets := make([]uint64, 400)
	for i := range targets {
		targets[i] = 0x7000
	}
	if mis := lateMispredicts(p, targets, nil); mis != 0 {
		t.Errorf("%d late mispredicts on monomorphic branch, want 0", mis)
	}
}

func TestFirstSightHasNoPrediction(t *testing.T) {
	p := newVPC()
	if _, ok := p.Predict(0x500); ok {
		t.Error("prediction available before any observation")
	}
	p.Update(0x500, 0x9000)
	pred, ok := p.Predict(0x500)
	if !ok || pred != 0x9000 {
		t.Errorf("Predict after one observation = %#x/%v, want 0x9000/true", pred, ok)
	}
}

func TestConditionCorrelatedTargets(t *testing.T) {
	// The target matches the previous conditional outcome: VPC's virtual
	// branches see that outcome in the shared predictor's history.
	hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
	p := New(DefaultConfig(), hp)
	rng := rand.New(rand.NewSource(1))
	n := 6000
	misLate := 0
	for i := 0; i < n; i++ {
		c := rng.Intn(2) == 0
		// Engine-style conditional handling through the shared predictor.
		hp.Predict(0xC04D)
		hp.Train(0xC04D, c)
		hp.UpdateHistory(0xC04D, c)
		tgt := uint64(0x1000)
		if c {
			tgt = 0x3000
		}
		pred, ok := p.Predict(0x400100)
		if (!ok || pred != tgt) && i >= n*3/4 {
			misLate++
		}
		p.Update(0x400100, tgt)
	}
	if misLate > n/4/10 {
		t.Errorf("%d late mispredicts out of %d, want <= %d", misLate, n/4, n/4/10)
	}
}

func TestPolymorphicRotation(t *testing.T) {
	p := newVPC()
	seq := []uint64{0x1000, 0x3000, 0x5000, 0x9000}
	targets := make([]uint64, 8000)
	for i := range targets {
		targets[i] = seq[i%len(seq)]
	}
	mis := lateMispredicts(p, targets, nil)
	// VPC devirtualizes the rotation into virtual branches with periodic
	// outcomes; expect strong learning though not necessarily perfection.
	if mis > len(targets)/4/10 {
		t.Errorf("%d late mispredicts out of %d on 4-target rotation", mis, len(targets)/4)
	}
}

func TestManyBranchesCoexist(t *testing.T) {
	p := newVPC()
	misLate := 0
	for round := 0; round < 50; round++ {
		for b := 0; b < 100; b++ {
			pc := uint64(0x10000 + b*64)
			tgt := uint64(0x900000 + b*0x1000)
			pred, ok := p.Predict(pc)
			if (!ok || pred != tgt) && round >= 40 {
				misLate++
			}
			p.Update(pc, tgt)
		}
	}
	if misLate > 20 {
		t.Errorf("%d late mispredicts across 100 monomorphic branches", misLate)
	}
}

func TestHistoryRestoredAfterPredict(t *testing.T) {
	hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
	p := New(DefaultConfig(), hp)
	// Warm up the branch with several targets so the virtual walk is long.
	for i := 0; i < 50; i++ {
		p.Update(0x700, uint64(0x1000*(1+i%5)))
	}
	before := hp.Predict(0xABC)
	p.Predict(0x700)
	after := hp.Predict(0xABC)
	if before != after {
		t.Error("VPC prediction walk leaked speculative history")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		p := newVPC()
		rng := rand.New(rand.NewSource(13))
		out := make([]uint64, 0, 500)
		for i := 0; i < 500; i++ {
			pc := uint64(0x100 + rng.Intn(3)*0x40)
			pred, ok := p.Predict(pc)
			if !ok {
				pred = ^uint64(0)
			}
			out = append(out, pred)
			p.Update(pc, uint64(0x1000*(1+rng.Intn(4))))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs between identical runs", i)
		}
	}
}

func TestStorageBudgetIncludesSharedPredictor(t *testing.T) {
	p := newVPC()
	kb := float64(p.StorageBits()) / 8192
	// Table 2 charges VPC 128 KB (BTB + conditional predictor). Our BTB
	// models more target bits per entry than the paper's budget math, so
	// allow a generous band around 128.
	if kb < 100 || kb > 350 {
		t.Errorf("storage = %.1f KB, want around the 128 KB class", kb)
	}
}

func TestUpdateWithoutPredictIsSafe(t *testing.T) {
	p := newVPC()
	for i := 0; i < 30; i++ {
		p.Update(0x900, 0x1234000)
	}
	pred, ok := p.Predict(0x900)
	if !ok || pred != 0x1234000 {
		t.Errorf("Predict = %#x/%v, want 0x1234000/true", pred, ok)
	}
}

func TestConstructorPanics(t *testing.T) {
	hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MaxIter 0 accepted")
			}
		}()
		New(Config{MaxIter: 0, BTB: DefaultConfig().BTB}, hp)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil conditional predictor accepted")
			}
		}()
		New(DefaultConfig(), nil)
	}()
}

func TestName(t *testing.T) {
	if newVPC().Name() != "vpc" {
		t.Error("Name")
	}
}

// refVPC is the reference walk: Predict and Update drive the shared
// perceptron through plain Predict and Train, with no row reuse.
type refVPC struct{ *VPC }

func (v refVPC) Predict(pc uint64) (uint64, bool) {
	v.hp.HistSnapshotInto(&v.snapBuf)
	defer v.hp.HistRestore(&v.snapBuf)
	for iter := 1; iter <= v.cfg.MaxIter; iter++ {
		vpca := v.vpcAddr(pc, iter)
		target, hit := v.btb.Lookup(vpca)
		if !hit {
			return 0, false
		}
		if v.hp.Predict(vpca) {
			return target, true
		}
		v.hp.SpecShift(false)
	}
	return 0, false
}

func (v refVPC) Update(pc, actual uint64) {
	var vpcas []uint64
	foundIter := 0
	for iter := 1; iter <= v.cfg.MaxIter; iter++ {
		vpca := v.vpcAddr(pc, iter)
		vpcas = append(vpcas, vpca)
		target, hit := v.btb.Lookup(vpca)
		if hit && target == actual {
			foundIter = iter
			break
		}
		if !hit {
			break
		}
	}
	if foundIter == 0 {
		best, bestStamp := len(vpcas), v.btb.SlotRecency(vpcas[len(vpcas)-1])
		for i := len(vpcas) - 2; i >= 0; i-- {
			if s := v.btb.SlotRecency(vpcas[i]); s < bestStamp {
				best, bestStamp = i+1, s
			}
		}
		foundIter = best
	}
	for i, vpca := range vpcas[:foundIter] {
		taken := i+1 == foundIter
		v.hp.Train(vpca, taken)
		v.hp.UpdateHistory(vpca, taken)
	}
	v.btb.Update(vpcas[foundIter-1], actual)
}

// TestWalkReuseMatchesReference runs VPC (Update reusing Predict's rows)
// and the reference walk side by side over a polymorphic stream with
// conditional and other branches interleaved, Updates without a Predict,
// and history moves between a Predict and its Update that must defeat the
// reuse. Predictions and the shared perceptrons' state must agree.
func TestWalkReuseMatchesReference(t *testing.T) {
	v := newVPC()
	ref := refVPC{newVPC()}
	rng := rand.New(rand.NewSource(5))
	pcs := []uint64{0x400100, 0x400200, 0x400340, 0x400480}
	for i := 0; i < 20000; i++ {
		pc := pcs[rng.Intn(len(pcs))]
		actual := uint64(0x10000 * (1 + rng.Intn(1+int(pc>>8&7))))
		switch r := rng.Intn(20); {
		case r < 8:
			cpc, taken := uint64(0x500000+rng.Intn(64)*4), rng.Intn(3) != 0
			for _, hp := range []*cond.HashedPerceptron{v.hp, ref.hp} {
				hp.Predict(cpc)
				hp.Train(cpc, taken)
				hp.UpdateHistory(cpc, taken)
			}
		case r < 9:
			v.Update(pc, actual)
			ref.Update(pc, actual)
		default:
			got, gotOK := v.Predict(pc)
			want, wantOK := ref.Predict(pc)
			if got != want || gotOK != wantOK {
				t.Fatalf("event %d: Predict(%#x) = %#x/%v, reference %#x/%v", i, pc, got, gotOK, want, wantOK)
			}
			if r == 9 {
				v.hp.OnOther(pc, actual, trace.IndirectJump)
				ref.hp.OnOther(pc, actual, trace.IndirectJump)
			}
			v.Update(pc, actual)
			ref.Update(pc, actual)
			v.hp.OnOther(pc, actual, trace.IndirectJump)
			ref.hp.OnOther(pc, actual, trace.IndirectJump)
		}
	}
	var a, b bytes.Buffer
	if err := v.hp.EncodeState(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.hp.EncodeState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("shared perceptron state differs from the reference walk's")
	}
}
