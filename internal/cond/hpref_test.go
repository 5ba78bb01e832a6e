package cond

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/snapshot"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// refHP is the reference hashed perceptron: one weight table per feature,
// a per-feature index switch, a ring-buffer path history hashed by a
// fresh loop at every depth, and no row reuse. The production kernel must
// match it prediction for prediction and snapshot byte for byte.
type refHP struct {
	cfg      HPConfig
	weights  [][]int8
	ghist    *history.FoldedSet
	featFold []history.FoldID
	local    *history.Local
	pcs      []uint16 // path ring; pcs[head] is the newest element
	head, n  int
	theta    *threshold.Adaptive
	wMin     int8
	wMax     int8
	scratch  []int
	lastPC   uint64
	lastOK   bool
}

func newRefHP(cfg HPConfig) *refHP {
	r := &refHP{
		cfg:      cfg,
		weights:  make([][]int8, len(cfg.Features)),
		ghist:    history.NewFoldedSet(cfg.HistBits),
		featFold: make([]history.FoldID, len(cfg.Features)),
		local:    history.NewLocal(cfg.LocalEntries, cfg.LocalBits),
		pcs:      make([]uint16, cfg.PathDepth),
		theta:    threshold.New(cfg.ThetaInit, 16, 1, 1024),
		scratch:  make([]int, len(cfg.Features)),
	}
	for i, f := range cfg.Features {
		r.weights[i] = make([]int8, cfg.TableEntries)
		r.featFold[i] = -1
		if f.Kind == FeatureGlobal {
			r.featFold[i] = r.ghist.Register(f.Lo, f.Hi, 22)
		}
	}
	maxW := int8(1<<uint(cfg.WeightBits-1) - 1)
	r.wMin, r.wMax = -maxW-1, maxW
	return r
}

func (r *refHP) pathPush(pc uint64) {
	r.head--
	if r.head < 0 {
		r.head = len(r.pcs) - 1
	}
	r.pcs[r.head] = uint16(pc >> 2)
	if r.n < len(r.pcs) {
		r.n++
	}
}

func (r *refHP) pathHash(upTo int) uint64 {
	if upTo > len(r.pcs) {
		upTo = len(r.pcs)
	}
	var h uint64
	for i := 0; i < upTo; i++ {
		idx := r.head + i
		if idx >= len(r.pcs) {
			idx -= len(r.pcs)
		}
		h = hashing.Combine(h, uint64(r.pcs[idx])+uint64(i)<<16)
	}
	return h
}

func (r *refHP) featureIndex(fi int, pc uint64) int {
	f := r.cfg.Features[fi]
	pcH := hashing.Mix64(pc + uint64(fi)<<56)
	var mix uint64
	switch f.Kind {
	case FeatureBias:
		mix = pcH
	case FeatureGlobal:
		mix = hashing.Combine(pcH, r.ghist.Value(r.featFold[fi]))
	case FeaturePath:
		mix = hashing.Combine(pcH, r.pathHash(f.Depth))
	case FeatureLocal:
		mix = hashing.Combine(pcH, r.local.Get(pc))
	}
	return hashing.Index(mix, r.cfg.TableEntries)
}

func (r *refHP) sum(pc uint64) int {
	total := 0
	for fi := range r.cfg.Features {
		idx := r.featureIndex(fi, pc)
		r.scratch[fi] = idx
		total += int(r.weights[fi][idx])
	}
	return total
}

func (r *refHP) Predict(pc uint64) bool {
	s := r.sum(pc)
	r.lastPC, r.lastOK = pc, true
	return s >= 0
}

func (r *refHP) Train(pc uint64, taken bool) {
	var s int
	if r.lastOK && r.lastPC == pc {
		for fi, idx := range r.scratch {
			s += int(r.weights[fi][idx])
		}
	} else {
		s = r.sum(pc)
	}
	mispredicted := (s >= 0) != taken
	a := s
	if a < 0 {
		a = -a
	}
	lowConfidence := !mispredicted && a < r.theta.Theta()
	r.theta.Observe(mispredicted, lowConfidence)
	if !mispredicted && !lowConfidence {
		return
	}
	for fi, idx := range r.scratch {
		w := r.weights[fi][idx]
		if taken && w < r.wMax {
			r.weights[fi][idx] = w + 1
		} else if !taken && w > r.wMin {
			r.weights[fi][idx] = w - 1
		}
	}
	r.lastOK = false
}

func (r *refHP) UpdateHistory(pc uint64, taken bool) {
	r.ghist.Shift(taken)
	r.pathPush(pc)
	r.local.Update(pc, taken)
	r.lastOK = false
}

func (r *refHP) OnOther(pc, target uint64, bt trace.BranchType) {
	r.pathPush(pc)
	if bt.IsIndirect() {
		r.ghist.ShiftBits(hashing.Mix64(target), 2)
	}
	r.lastOK = false
}

func (r *refHP) SpecShift(taken bool) {
	r.ghist.Shift(taken)
	r.lastOK = false
}

func (r *refHP) EncodeState(w io.Writer) error {
	c := snapshot.NewContainer(hpSnapName, snapshot.Fingerprint(r.cfg))
	we := c.Section(secWeights)
	we.Int(len(r.weights))
	for _, tbl := range r.weights {
		we.I8s(tbl)
	}
	r.ghist.EncodeState(c.Section(secGhist))
	r.local.EncodeState(c.Section(secLocal))
	pe := c.Section(secPath)
	pe.U16s(r.pcs)
	pe.Int(r.head)
	pe.Int(r.n)
	te := c.Section(secTheta)
	theta, tc := r.theta.State()
	te.Int(theta)
	te.Int(tc)
	return c.EncodeTo(w)
}

// RestoreState trusts its input: the fuzz feeds it only bytes the
// production kernel encoded.
func (r *refHP) RestoreState(rd io.Reader) error {
	dc, err := snapshot.ReadContainer(rd, hpSnapName, snapshot.Fingerprint(r.cfg))
	if err != nil {
		return err
	}
	d, err := dc.Section(secWeights)
	if err != nil {
		return err
	}
	d.Int()
	for _, tbl := range r.weights {
		d.I8sInto(tbl)
	}
	if d, err = dc.Section(secGhist); err != nil {
		return err
	}
	if err := r.ghist.RestoreState(d); err != nil {
		return err
	}
	if d, err = dc.Section(secLocal); err != nil {
		return err
	}
	if err := r.local.RestoreState(d); err != nil {
		return err
	}
	if d, err = dc.Section(secPath); err != nil {
		return err
	}
	d.U16sInto(r.pcs)
	r.head, r.n = d.Int(), d.Int()
	if d, err = dc.Section(secTheta); err != nil {
		return err
	}
	theta, tc := d.Int(), d.Int()
	r.lastOK = false
	return r.theta.SetState(theta, tc)
}

// equivConfigs are the geometries the equivalence checks run: the default,
// and an odd one with a non-power-of-two table (hashing.Index's modulo
// reduction), a path depth that is not a whole number of window words,
// duplicate path depths, two local features, and no bias feature.
func equivConfigs() []HPConfig {
	odd := HPConfig{
		TableEntries: 600,
		WeightBits:   8,
		Features: []Feature{
			{Kind: FeatureLocal},
			{Kind: FeaturePath, Depth: 7},
			{Kind: FeatureGlobal, Lo: 3, Hi: 40},
			{Kind: FeaturePath, Depth: 2},
			{Kind: FeatureLocal},
			{Kind: FeaturePath, Depth: 7},
			{Kind: FeatureGlobal, Lo: 0, Hi: 99},
		},
		HistBits:     100,
		LocalEntries: 37,
		LocalBits:    5,
		PathDepth:    7,
		ThetaInit:    3,
	}
	return []HPConfig{DefaultHPConfig(), odd}
}

// equivRunner replays one op stream on the kernel and the reference.
type equivRunner struct {
	t    testing.TB
	hp   *HashedPerceptron
	ref  *refHP
	rows []int // VPC-style walk rows, maxWalk × hp.RowCount()
}

const maxWalk = 12

func vpcAddr(pc uint64, iter int) uint64 {
	if iter == 1 {
		return pc
	}
	return hashing.Combine(pc, uint64(iter)*0x8c6d)
}

func (d *equivRunner) state(w interface{ EncodeState(io.Writer) error }) []byte {
	var b bytes.Buffer
	if err := w.EncodeState(&b); err != nil {
		d.t.Fatal(err)
	}
	return b.Bytes()
}

func (d *equivRunner) checkState(step int) {
	if a, b := d.state(d.hp), d.state(d.ref); !bytes.Equal(a, b) {
		d.t.Fatalf("step %d: EncodeState differs from the reference", step)
	}
}

// walk mirrors VPC: a speculative predict walk of up to n virtual PCs
// under a global-history snapshot, then (after an optional intervening
// event that must defeat row reuse) the committing train walk up to found.
func (d *equivRunner) walk(step int, pc uint64, n, found int, interfere bool) {
	hp, ref := d.hp, d.ref
	nr := hp.RowCount()
	snap := hp.HistSnapshot()
	rsnap := ref.ghist.Snapshot()
	walked := 0
	for iter := 1; iter <= n; iter++ {
		vpca := vpcAddr(pc, iter)
		got := hp.PredictRows(vpca, d.rows[walked*nr:(walked+1)*nr])
		walked++
		if want := ref.Predict(vpca); got != want {
			d.t.Fatalf("step %d: walk iteration %d predicted %v, reference %v", step, iter, got, want)
		}
		if got {
			break
		}
		hp.SpecShift(false)
		ref.SpecShift(false)
	}
	hp.HistRestore(&snap)
	ref.ghist.Restore(&rsnap)
	ref.lastOK = false
	gen := hp.HistGen()
	if interfere {
		hp.OnOther(pc^0x40, pc, trace.IndirectJump)
		ref.OnOther(pc^0x40, pc, trace.IndirectJump)
	}
	reuse := 0
	if hp.HistGen() == gen {
		reuse = walked
	}
	for iter := 1; iter <= found; iter++ {
		vpca := vpcAddr(pc, iter)
		taken := iter == found
		if iter <= reuse {
			hp.TrainRows(vpca, taken, d.rows[(iter-1)*nr:iter*nr], iter == 1)
		} else {
			hp.Train(vpca, taken)
		}
		ref.Train(vpca, taken)
		hp.UpdateHistory(vpca, taken)
		ref.UpdateHistory(vpca, taken)
	}
}

// run interprets ops as an event stream over a small PC pool, so rows,
// path windows and local registers repeat and collide.
func (d *equivRunner) run(ops []byte) {
	pcs := make([]uint64, 24)
	rng := rand.New(rand.NewSource(int64(len(ops))))
	for i := range pcs {
		pcs[i] = rng.Uint64() &^ 3
	}
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step], ops[step+1], ops[step+2]
		pc := pcs[int(a)%len(pcs)]
		switch op % 8 {
		case 0, 1, 2, 3:
			taken := b&1 != 0
			if got, want := d.hp.Predict(pc), d.ref.Predict(pc); got != want {
				d.t.Fatalf("step %d: Predict(%#x) = %v, reference %v", step, pc, got, want)
			}
			d.hp.Train(pc, taken)
			d.ref.Train(pc, taken)
			d.hp.UpdateHistory(pc, taken)
			d.ref.UpdateHistory(pc, taken)
		case 4:
			bt := []trace.BranchType{trace.IndirectJump, trace.IndirectCall, trace.Return, trace.DirectCall, trace.UncondDirect}[int(b)%5]
			target := pcs[int(b)%len(pcs)]
			d.hp.OnOther(pc, target, bt)
			d.ref.OnOther(pc, target, bt)
		case 5, 6:
			n := 1 + int(b)%maxWalk
			found := 1 + int(b>>4)%maxWalk
			d.walk(step, pc, n, found, op&0x80 != 0)
		case 7:
			// Train without a matching Predict, now and then followed by
			// a state round trip through the kernel's own encoding.
			d.hp.Train(pc, b&1 != 0)
			d.ref.Train(pc, b&1 != 0)
			if b&0x1e != 0 {
				continue
			}
			d.checkState(step)
			st := d.state(d.hp)
			if err := d.hp.RestoreState(bytes.NewReader(st)); err != nil {
				d.t.Fatal(err)
			}
			if err := d.ref.RestoreState(bytes.NewReader(st)); err != nil {
				d.t.Fatal(err)
			}
		}
	}
	d.checkState(len(ops))
}

func newEquivRunner(t testing.TB, cfg HPConfig) *equivRunner {
	hp := NewHashedPerceptron(cfg)
	return &equivRunner{t: t, hp: hp, ref: newRefHP(cfg), rows: make([]int, maxWalk*hp.RowCount())}
}

// FuzzHashedPerceptronEquivalence checks the kernel (grouped rows, one
// path chain with a window memo, batched fold reads, Predict's sum reused
// by Train, and VPC's row reuse) against the reference over arbitrary
// cond, other-branch and indirect streams with VPC walks and state
// restores at arbitrary points.
func FuzzHashedPerceptronEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{30, 300, 3000} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(uint8(0), ops)
		f.Add(uint8(1), ops)
	}
	cfgs := equivConfigs()
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		newEquivRunner(t, cfgs[int(which)%len(cfgs)]).run(ops)
	})
}

// TestHashedPerceptronMatchesReference is a long deterministic stream per
// configuration, long enough that weights saturate and theta adapts.
func TestHashedPerceptronMatchesReference(t *testing.T) {
	for ci, cfg := range equivConfigs() {
		ops := make([]byte, 20000)
		rand.New(rand.NewSource(int64(ci))).Read(ops)
		newEquivRunner(t, cfg).run(ops)
	}
}
