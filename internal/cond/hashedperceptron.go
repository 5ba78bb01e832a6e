package cond

import (
	"fmt"

	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// FeatureKind enumerates the history features a hashed-perceptron table can
// be indexed by (a small subset of the 37-feature multiperspective predictor
// the paper uses under VPC; see DESIGN.md for the substitution note).
type FeatureKind int

const (
	// FeatureBias indexes by PC only.
	FeatureBias FeatureKind = iota
	// FeatureGlobal indexes by PC hashed with a global-history interval.
	FeatureGlobal
	// FeaturePath indexes by PC hashed with path history.
	FeaturePath
	// FeatureLocal indexes by PC hashed with the branch's local history.
	FeatureLocal
)

// Feature describes one perceptron table's index function.
type Feature struct {
	Kind FeatureKind
	// Lo, Hi select the inclusive global-history interval (FeatureGlobal).
	Lo, Hi int
	// Depth is the path depth (FeaturePath).
	Depth int
}

// HPConfig parameterizes a hashed perceptron predictor.
type HPConfig struct {
	// TableEntries is the number of weight rows per feature table.
	TableEntries int
	// WeightBits is the width of each signed weight (6 in Tarjan & Skadron).
	WeightBits int
	// Features lists the tables.
	Features []Feature
	// HistBits is the global history capacity.
	HistBits int
	// LocalEntries × LocalBits sizes the local history table.
	LocalEntries int
	LocalBits    int
	// PathDepth is the path history depth.
	PathDepth int
	// ThetaInit seeds the adaptive threshold.
	ThetaInit int
}

// DefaultHPConfig returns a ~64 KB hashed perceptron comparable in budget to
// the multiperspective predictor the paper pairs with VPC.
func DefaultHPConfig() HPConfig {
	return HPConfig{
		TableEntries: 4096,
		WeightBits:   6,
		Features: []Feature{
			{Kind: FeatureBias},
			{Kind: FeatureLocal},
			{Kind: FeaturePath, Depth: 8},
			{Kind: FeaturePath, Depth: 16},
			{Kind: FeatureGlobal, Lo: 0, Hi: 7},
			{Kind: FeatureGlobal, Lo: 0, Hi: 15},
			{Kind: FeatureGlobal, Lo: 8, Hi: 23},
			{Kind: FeatureGlobal, Lo: 16, Hi: 39},
			{Kind: FeatureGlobal, Lo: 24, Hi: 63},
			{Kind: FeatureGlobal, Lo: 40, Hi: 95},
			{Kind: FeatureGlobal, Lo: 64, Hi: 150},
			{Kind: FeatureGlobal, Lo: 96, Hi: 220},
			{Kind: FeatureGlobal, Lo: 150, Hi: 320},
			{Kind: FeatureGlobal, Lo: 220, Hi: 470},
			{Kind: FeatureGlobal, Lo: 320, Hi: 630},
			{Kind: FeatureGlobal, Lo: 470, Hi: 630},
		},
		HistBits:     631,
		LocalEntries: 1024,
		LocalBits:    11,
		PathDepth:    16,
		ThetaInit:    24,
	}
}

// Validate reports the first constraint cfg breaks, naming the field; a
// nil error means NewHashedPerceptron accepts it.
func (c HPConfig) Validate() error {
	if c.TableEntries <= 0 {
		return fmt.Errorf("cond: TableEntries %d must be positive", c.TableEntries)
	}
	if c.WeightBits < 2 || c.WeightBits > 8 {
		return fmt.Errorf("cond: WeightBits %d outside [2,8] (weights are int8)", c.WeightBits)
	}
	if len(c.Features) == 0 {
		return fmt.Errorf("cond: no features")
	}
	if c.HistBits <= 0 {
		return fmt.Errorf("cond: HistBits %d must be positive", c.HistBits)
	}
	if c.LocalEntries <= 0 {
		return fmt.Errorf("cond: LocalEntries %d must be positive", c.LocalEntries)
	}
	if c.LocalBits <= 0 || c.LocalBits > 63 {
		return fmt.Errorf("cond: LocalBits %d outside [1,63]", c.LocalBits)
	}
	if c.PathDepth <= 0 {
		return fmt.Errorf("cond: PathDepth %d must be positive", c.PathDepth)
	}
	if c.ThetaInit < thetaMin || c.ThetaInit > thetaMax {
		return fmt.Errorf("cond: ThetaInit %d outside [%d,%d]", c.ThetaInit, thetaMin, thetaMax)
	}
	for i, f := range c.Features {
		switch f.Kind {
		case FeatureGlobal:
			if f.Lo < 0 || f.Hi < f.Lo || f.Hi >= c.HistBits {
				return fmt.Errorf("cond: feature %d interval [%d,%d] outside history of %d bits", i, f.Lo, f.Hi, c.HistBits)
			}
		case FeaturePath:
			if f.Depth <= 0 || f.Depth > c.PathDepth {
				return fmt.Errorf("cond: feature %d path depth %d outside [1,%d]", i, f.Depth, c.PathDepth)
			}
		case FeatureBias, FeatureLocal:
		default:
			return fmt.Errorf("cond: feature %d has unknown kind %d", i, f.Kind)
		}
	}
	return nil
}

// Adaptive-threshold bounds of the hashed perceptron.
const (
	thetaMin = 1
	thetaMax = 1024
)

// hpRow is one feature's index function, grouped by kind in
// HashedPerceptron.rows so the sum kernel runs one loop per kind.
type hpRow struct {
	salt uint64 // the feature's position in HPConfig.Features, at bit 56
	base int    // offset of the feature's weight table in HashedPerceptron.table
	arg  int    // FoldID (global) or Path.Register position (path)
}

// HashedPerceptron is a Tarjan & Skadron-style hashed perceptron predictor
// over a configurable feature set. It also exposes the speculation hooks
// (SpecShift, HistSnapshot/HistRestore) and the row-reuse pair
// (PredictRows/TrainRows) that the VPC predictor needs to walk virtual PCs.
type HashedPerceptron struct {
	cfg     HPConfig
	table   []int8   // len(Features) × TableEntries weights, feature-major
	weights [][]int8 // weights[fi] views feature fi's table within table
	// rows lists the features by kind: bias, global, path, then local.
	// Bias and global rows depend only on the PC and global history;
	// path and local rows also move with path and local history.
	rows     []hpRow
	biasEnd  int // rows[:biasEnd] are the bias rows
	histEnd  int // rows[biasEnd:histEnd] are the global rows
	pathEnd  int // rows[histEnd:pathEnd] are the path rows
	ghist    *history.FoldedSet
	folds    []uint64 // fold values, read once per sum
	local    *history.Local
	localPC  uint64 // the PC whose local register is localReg
	localReg int
	path     *history.Path
	theta    *threshold.Adaptive
	wMin     int8
	wMax     int8

	idx     []int // weight rows of the last sum, in rows order
	lastPC  uint64
	lastSum int
	lastOK  bool   // idx and lastSum describe lastPC under current state
	gen     uint64 // history generation (see HistGen)
}

// NewHashedPerceptron constructs a predictor; it panics on an invalid
// configuration (see HPConfig.Validate).
func NewHashedPerceptron(cfg HPConfig) *HashedPerceptron {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.TableEntries
	table := make([]int8, len(cfg.Features)*n)
	weights := make([][]int8, len(cfg.Features))
	for fi := range weights {
		weights[fi] = table[fi*n : (fi+1)*n : (fi+1)*n]
	}
	h := &HashedPerceptron{
		cfg:     cfg,
		table:   table,
		weights: weights,
		ghist:   history.NewFoldedSet(cfg.HistBits),
		local:   history.NewLocal(cfg.LocalEntries, cfg.LocalBits),
		path:    history.NewPath(cfg.PathDepth),
		theta:   threshold.New(cfg.ThetaInit, 16, thetaMin, thetaMax),
		idx:     make([]int, len(cfg.Features)),
	}
	for _, kind := range []FeatureKind{FeatureBias, FeatureGlobal, FeaturePath, FeatureLocal} {
		for fi, f := range cfg.Features {
			if f.Kind != kind {
				continue
			}
			r := hpRow{salt: uint64(fi) << 56, base: fi * n}
			switch kind {
			case FeatureGlobal:
				r.arg = int(h.ghist.Register(f.Lo, f.Hi, 22))
			case FeaturePath:
				r.arg = h.path.Register(f.Depth)
			}
			h.rows = append(h.rows, r)
		}
		switch kind {
		case FeatureBias:
			h.biasEnd = len(h.rows)
		case FeatureGlobal:
			h.histEnd = len(h.rows)
		case FeaturePath:
			h.pathEnd = len(h.rows)
		}
	}
	h.folds = make([]uint64, h.ghist.NumFolds())
	h.localReg = h.local.Index(h.localPC)
	maxW := int8(1<<uint(cfg.WeightBits-1) - 1)
	h.wMin, h.wMax = -maxW-1, maxW
	return h
}

// Name implements Predictor.
func (h *HashedPerceptron) Name() string { return "hashed-perceptron" }

// histRows computes pc's bias and global rows into idx.
//
//blbp:hot
func (h *HashedPerceptron) histRows(pc uint64) {
	n := h.cfg.TableEntries
	rows := h.rows[:h.histEnd]
	idx := h.idx[:len(rows)]
	for i := 0; i < h.biasEnd; i++ {
		idx[i] = hashing.Index(hashing.Mix64(pc+rows[i].salt), n)
	}
	h.ghist.Values(h.folds)
	for i := h.biasEnd; i < len(rows); i++ {
		r := &rows[i]
		idx[i] = hashing.Index(hashing.Combine(hashing.Mix64(pc+r.salt), h.folds[r.arg]), n)
	}
}

// moveRows computes pc's path and local rows into idx.
//
//blbp:hot
func (h *HashedPerceptron) moveRows(pc uint64) {
	n := h.cfg.TableEntries
	rows := h.rows
	idx := h.idx[:len(rows)]
	ph := h.path.Hashes()
	for i := h.histEnd; i < h.pathEnd; i++ {
		r := &rows[i]
		idx[i] = hashing.Index(hashing.Combine(hashing.Mix64(pc+r.salt), ph[r.arg]), n)
	}
	if h.pathEnd == len(rows) {
		return
	}
	if pc != h.localPC {
		h.localPC, h.localReg = pc, h.local.Index(pc)
	}
	lv := h.local.Reg(h.localReg)
	for i := h.pathEnd; i < len(rows); i++ {
		idx[i] = hashing.Index(hashing.Combine(hashing.Mix64(pc+rows[i].salt), lv), n)
	}
}

// weightSum returns the perceptron output over the rows in idx.
//
//blbp:hot
func (h *HashedPerceptron) weightSum() int {
	total := 0
	for i, ix := range h.idx {
		total += int(h.table[h.rows[i].base+ix])
	}
	return total
}

// Predict implements Predictor.
//
//blbp:hot
func (h *HashedPerceptron) Predict(pc uint64) bool {
	h.histRows(pc)
	h.moveRows(pc)
	h.lastPC, h.lastSum, h.lastOK = pc, h.weightSum(), true
	return h.lastSum >= 0
}

// Train implements Predictor. It must be called with history in the same
// state as the matching Predict (the engine trains before updating
// histories); it then reuses Predict's rows and sum.
//
//blbp:hot
func (h *HashedPerceptron) Train(pc uint64, taken bool) {
	if !h.lastOK || h.lastPC != pc {
		h.Predict(pc)
	}
	h.train(taken)
}

// RowCount is the length of the row buffers PredictRows and TrainRows
// exchange.
func (h *HashedPerceptron) RowCount() int { return len(h.rows) }

// PredictRows is Predict that also copies the weight rows it read into
// rows (RowCount entries), for a later TrainRows at the same PC.
//
//blbp:hot
func (h *HashedPerceptron) PredictRows(pc uint64, rows []int) bool {
	taken := h.Predict(pc)
	copy(rows, h.idx)
	return taken
}

// TrainRows is Train at pc with the rows PredictRows captured at pc. The
// global history must be what it was at the capture: bias and global rows
// are taken from rows. Path and local rows are taken from rows too when
// samePathLocal is set (no history of any kind has moved since the
// capture), and recomputed otherwise. The sum is always re-read from the
// current weights.
//
//blbp:hot
func (h *HashedPerceptron) TrainRows(pc uint64, taken bool, rows []int, samePathLocal bool) {
	if samePathLocal {
		copy(h.idx, rows)
	} else {
		copy(h.idx[:h.histEnd], rows)
		h.moveRows(pc)
	}
	h.lastPC, h.lastSum, h.lastOK = pc, h.weightSum(), true
	h.train(taken)
}

// train applies the threshold rule to the sum and rows of the last
// prediction, stepping every row's weight toward the outcome.
//
//blbp:hot
func (h *HashedPerceptron) train(taken bool) {
	s := h.lastSum
	mispredicted := (s >= 0) != taken
	a := s
	if a < 0 {
		a = -a
	}
	lowConfidence := !mispredicted && a < h.theta.Theta()
	h.theta.Observe(mispredicted, lowConfidence)
	if !mispredicted && !lowConfidence {
		return
	}
	for i, ix := range h.idx {
		j := h.rows[i].base + ix
		w := h.table[j]
		if taken {
			if w < h.wMax {
				h.table[j] = w + 1
			}
		} else {
			if w > h.wMin {
				h.table[j] = w - 1
			}
		}
	}
	h.lastOK = false
}

// UpdateHistory implements Predictor.
//
//blbp:hot
func (h *HashedPerceptron) UpdateHistory(pc uint64, taken bool) {
	h.ghist.Shift(taken)
	h.path.Push(pc)
	if pc != h.localPC {
		h.localPC, h.localReg = pc, h.local.Index(pc)
	}
	h.local.UpdateAt(h.localReg, taken)
	h.lastOK = false
	h.gen++
}

// OnOther implements Predictor: unconditional transfers contribute path
// information, and indirect branches fold two target bits into global
// history (mirroring ITTAGE-style path/target history).
func (h *HashedPerceptron) OnOther(pc, target uint64, bt trace.BranchType) {
	h.path.Push(pc)
	if bt.IsIndirect() {
		// Hash the target so aligned targets (low bits constant) still
		// contribute distinguishing history bits.
		h.ghist.ShiftBits(hashing.Mix64(target), 2)
	}
	h.lastOK = false
	h.gen++
}

// SpecShift speculatively shifts one outcome bit into global history. VPC
// uses it to model the virtual not-taken outcomes between iterations.
func (h *HashedPerceptron) SpecShift(taken bool) {
	h.ghist.Shift(taken)
	h.lastOK = false
	h.gen++
}

// HistGen returns the history generation: a counter that advances
// whenever global, path or local history may have moved. Equal values
// bracket a span in which rows captured by PredictRows stay valid.
func (h *HashedPerceptron) HistGen() uint64 { return h.gen }

// HistSnapshot captures global-history state (including the incrementally
// maintained folds) for later rollback.
func (h *HashedPerceptron) HistSnapshot() history.FoldedSnapshot { return h.ghist.Snapshot() }

// HistSnapshotInto captures global-history state into a caller-owned
// snapshot, reusing its storage; VPC snapshots once per prediction, making
// this the allocation-free hot variant.
func (h *HashedPerceptron) HistSnapshotInto(dst *history.FoldedSnapshot) {
	h.ghist.SnapshotInto(dst)
}

// HistRestore rolls global history back to a snapshot.
func (h *HashedPerceptron) HistRestore(s *history.FoldedSnapshot) {
	h.ghist.Restore(s)
	h.lastOK = false
	h.gen++
}

// Theta exposes the current adaptive threshold (for tests and diagnostics).
func (h *HashedPerceptron) Theta() int { return h.theta.Theta() }

// StorageBits implements Predictor.
func (h *HashedPerceptron) StorageBits() int {
	bits := len(h.cfg.Features) * h.cfg.TableEntries * h.cfg.WeightBits
	bits += h.cfg.HistBits
	bits += h.cfg.LocalEntries * h.cfg.LocalBits
	bits += h.cfg.PathDepth * 16
	return bits
}
