package history

import (
	"fmt"

	"blbp/internal/snapshot"
)

// EncodeState serializes the folded set into a snapshot section. Lazy state
// is flushed first: the pending-shift counter is driven to zero by catching
// every interval accumulator up, so the stored accumulators equal what any
// future fold read would observe (DESIGN.md §13, flush-on-encode rule). The
// fold registrations themselves (intervals and widths) are configuration and
// are reconstructed by the owning predictor; only the raw register and the
// caught-up accumulator values travel in the snapshot.
func (s *FoldedSet) EncodeState(e *snapshot.Enc) {
	s.catchUp()
	e.Int(s.capBits)
	e.Int(s.g.head)
	e.U64s(s.g.words)
	e.Int(len(s.accs))
	for i := range s.accs {
		e.U64(s.accs[i].acc)
	}
}

// RestoreState reinstates state captured by EncodeState into a folded set
// with the same capacity and fold registrations.
func (s *FoldedSet) RestoreState(d *snapshot.Dec) error {
	capBits := d.Int()
	head := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if capBits != s.capBits {
		return fmt.Errorf("%w: folded set capacity %d, have %d", snapshot.ErrMismatch, capBits, s.capBits)
	}
	if head < 0 || head >= s.g.capBits {
		return fmt.Errorf("%w: history head %d outside register", snapshot.ErrCorrupt, head)
	}
	d.U64sInto(s.g.words)
	nacc := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nacc != len(s.accs) {
		return fmt.Errorf("%w: %d accumulators, have %d", snapshot.ErrMismatch, nacc, len(s.accs))
	}
	for i := range s.accs {
		s.accs[i].acc = d.U64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.g.head = head
	s.pending = 0
	return nil
}

// EncodeState serializes the local-history table.
func (l *Local) EncodeState(e *snapshot.Enc) {
	e.U64s(l.regs)
}

// RestoreState reinstates a local-history table of the same shape,
// rejecting register contents wider than the configured history bits.
func (l *Local) RestoreState(d *snapshot.Dec) error {
	saved := make([]uint64, len(l.regs))
	d.U64sInto(saved)
	if err := d.Err(); err != nil {
		return err
	}
	for i, v := range saved {
		if v&^l.mask != 0 {
			return fmt.Errorf("%w: local register %d value %#x exceeds %d bits", snapshot.ErrCorrupt, i, v, l.bits)
		}
	}
	copy(l.regs, saved)
	return nil
}

// EncodeState serializes the path history in its ring form: element i
// (0 = newest) at ring position head+i, wrapping at the depth.
func (p *Path) EncodeState(e *snapshot.Enc) {
	pcs := make([]uint16, p.depth)
	for i := range pcs {
		pcs[p.ringPos(p.head, i)] = p.elem(i)
	}
	e.U16s(pcs)
	e.Int(p.head)
	e.Int(p.n)
}

// ringPos returns the ring position of element i (0 <= i < depth) when the
// newest element sits at head.
func (p *Path) ringPos(head, i int) int {
	if j := head + i; j < p.depth {
		return j
	}
	return head + i - p.depth
}

// RestoreState reinstates a path history of the same depth.
func (p *Path) RestoreState(d *snapshot.Dec) error {
	saved := make([]uint16, p.depth)
	d.U16sInto(saved)
	head := d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if head < 0 || head >= p.depth {
		return fmt.Errorf("%w: path head %d outside depth %d", snapshot.ErrCorrupt, head, p.depth)
	}
	if n < 0 || n > p.depth {
		return fmt.Errorf("%w: path fill %d outside depth %d", snapshot.ErrCorrupt, n, p.depth)
	}
	for j := range p.win {
		p.win[j] = 0
	}
	for i := range saved {
		p.win[i>>2] |= uint64(saved[p.ringPos(head, i)]) << (16 * uint(i&3))
	}
	p.head = head
	p.n = n
	p.fresh = false
	return nil
}
