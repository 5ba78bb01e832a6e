package history

import "blbp/internal/hashing"

// pathMemoBits sizes the path-hash memo: 1<<pathMemoBits direct-mapped
// entries. It is a simulator cache, not modelled hardware, so it is a
// constant rather than a configuration field.
const pathMemoBits = 12

// Path records the low-order address bits of the most recent branches — the
// path history used as an extra feature by the hashed-perceptron conditional
// predictor (Tarjan & Skadron merge path and pattern indexing).
//
// The window is kept as packed words that Push shifts: element i (0 = the
// newest branch) is the 16-bit field at bit 16*(i%4) of win[i/4]. The hash
// at depth d is the d-step chain
//
//	h = 0; for i < d: h = Combine(h, elem(i) + i<<16)
//
// so every registered depth is a prefix of one chain, computed once per
// window. Chains are memoised in a direct-mapped table keyed by the exact
// window words; a lookup compares the whole key, so a slot collision costs
// a recompute, never a wrong hash.
type Path struct {
	win   []uint64
	depth int
	head  int // ring position of the newest element in the encoded form
	n     int

	depths []int    // registered hash depths
	hashes []uint64 // chain value at each registered depth
	fresh  bool     // hashes describe the current window
	chain  []uint64 // scratch: the chain up to the deepest registered depth
	memo   []uint64 // 1<<pathMemoBits entries of stride words: key, then hashes
	stride int
}

// NewPath returns a path history of the given depth (number of branches).
func NewPath(depth int) *Path {
	if depth <= 0 {
		panic("history: NewPath with non-positive depth")
	}
	return &Path{win: make([]uint64, (depth+3)/4), depth: depth}
}

// Register adds a hash depth (clamped to the path depth) and returns its
// position in the slice Hashes returns. Depths registered twice share one
// position. Registration is construction-time work: it drops the memo,
// which the next lookup rebuilds for the new depth set.
func (p *Path) Register(depth int) int {
	if depth <= 0 {
		panic("history: Path.Register with non-positive depth")
	}
	if depth > p.depth {
		depth = p.depth
	}
	for i, d := range p.depths {
		if d == depth {
			return i
		}
	}
	p.depths = append(p.depths, depth)
	p.hashes = append(p.hashes, 0)
	p.chain = make([]uint64, max(len(p.chain), depth))
	p.stride = len(p.win) + len(p.depths)
	p.memo = nil
	p.fresh = false
	return len(p.depths) - 1
}

// buildMemo allocates the memo for the registered depths and seeds every
// entry with the all-zero window and its hashes, so every slot holds a
// valid (key, hashes) pair from the start. It runs at the first lookup, so
// a predictor that is built but never driven does not pay for it.
func (p *Path) buildMemo() {
	nw := len(p.win)
	p.memo = make([]uint64, p.stride<<pathMemoBits)
	p.computeChain(make([]uint64, nw))
	for e := 0; e < len(p.memo); e += p.stride {
		for k, d := range p.depths {
			p.memo[e+nw+k] = p.chain[d-1]
		}
	}
}

// Push records a branch address as the newest path element.
//
//blbp:hot
func (p *Path) Push(pc uint64) {
	p.head--
	if p.head < 0 {
		p.head = p.depth - 1
	}
	for j := len(p.win) - 1; j > 0; j-- {
		p.win[j] = p.win[j]<<16 | p.win[j-1]>>48
	}
	p.win[0] = p.win[0]<<16 | uint64(uint16(pc>>2))
	if r := p.depth & 3; r != 0 {
		last := len(p.win) - 1
		p.win[last] &= 1<<(16*uint(r)) - 1
	}
	if p.n < p.depth {
		p.n++
	}
	p.fresh = false
}

// Depth returns the configured path depth.
func (p *Path) Depth() int { return p.depth }

// Hashes returns the path hash at each registered depth, in registration
// order. The slice is owned by the Path and valid until the next Push,
// Register, RestoreState or Reset; repeated calls in between are free.
//
//blbp:hot
func (p *Path) Hashes() []uint64 {
	if !p.fresh {
		p.lookup()
	}
	return p.hashes
}

// memoSlot returns the memo entry offset for the current window.
func (p *Path) memoSlot() int {
	var k uint64
	for _, w := range p.win {
		k = (k ^ w) * 0x9e3779b97f4a7c15
	}
	return int(k>>(64-pathMemoBits)) * p.stride
}

// lookup fills hashes for the current window from the memo, computing and
// storing the chain on a miss.
func (p *Path) lookup() {
	p.fresh = true
	if p.memo == nil {
		if len(p.depths) == 0 {
			return
		}
		p.buildMemo()
	}
	e := p.memoSlot()
	entry := p.memo[e : e+p.stride]
	nw := len(p.win)
	hit := true
	for j, w := range p.win {
		if entry[j] != w {
			hit = false
			break
		}
	}
	if !hit {
		p.computeChain(p.win)
		copy(entry, p.win)
		for k, d := range p.depths {
			entry[nw+k] = p.chain[d-1]
		}
	}
	copy(p.hashes, entry[nw:])
}

// computeChain fills p.chain with the hash chain of window win.
func (p *Path) computeChain(win []uint64) {
	var h uint64
	for i := range p.chain {
		h = hashing.Combine(h, uint64(winElem(win, i))+uint64(i)<<16)
		p.chain[i] = h
	}
}

// winElem returns element i (0 = newest) of packed window win.
func winElem(win []uint64, i int) uint16 { return uint16(win[i>>2] >> (16 * uint(i&3))) }

// elem returns path element i (0 = newest).
func (p *Path) elem(i int) uint16 { return winElem(p.win, i) }

// Reset clears the path history. The memo is a pure function of the
// window, so it survives.
func (p *Path) Reset() {
	for i := range p.win {
		p.win[i] = 0
	}
	p.head = 0
	p.n = 0
	p.fresh = false
}
