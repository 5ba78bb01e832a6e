package history

import "blbp/internal/hashing"

// Local is a table of fixed-width per-branch history shift registers,
// indexed by a hash of the branch PC. BLBP keeps 256 registers of 10 bits;
// each records bit 3 of the previous targets of the branch mapping there.
type Local struct {
	regs    []uint64
	mask    uint64
	entries int
	bits    int
}

// NewLocal returns a local-history table of entries registers, each holding
// bits history bits. entries is used as given, not rounded up to a power of
// two; hashing.Index reduces the PC hash to a register for any size.
func NewLocal(entries, bits int) *Local {
	if entries <= 0 {
		panic("history: NewLocal with non-positive entries")
	}
	if bits <= 0 || bits > 63 {
		panic("history: NewLocal bits out of range")
	}
	return &Local{
		regs:    make([]uint64, entries),
		mask:    uint64(1)<<uint(bits) - 1,
		entries: entries,
		bits:    bits,
	}
}

// Index returns the register pc maps to. Callers that read and then update
// one branch's register compute it once and use Reg and UpdateAt.
func (l *Local) Index(pc uint64) int {
	return hashing.Index(hashing.Mix64(pc), l.entries)
}

// Get returns the history register associated with pc.
func (l *Local) Get(pc uint64) uint64 { return l.regs[l.Index(pc)] }

// Update shifts outcome bit b into pc's history register.
func (l *Local) Update(pc uint64, b bool) { l.UpdateAt(l.Index(pc), b) }

// UpdateAt shifts outcome bit b into register i.
func (l *Local) UpdateAt(i int, b bool) {
	v := l.regs[i] << 1
	if b {
		v |= 1
	}
	l.regs[i] = v & l.mask
}

// Bits returns the width of each register.
func (l *Local) Bits() int { return l.bits }

// Entries returns the number of registers.
func (l *Local) Entries() int { return l.entries }

// Reg returns register i's raw contents (state fingerprinting/diagnostics).
func (l *Local) Reg(i int) uint64 { return l.regs[i] }

// Reset clears every register.
func (l *Local) Reset() {
	for i := range l.regs {
		l.regs[i] = 0
	}
}
