package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The record-slice reference decoder. Production decodes trace files only
// into columns (decodeBlockColumns); this file keeps the original
// per-record decoder as the oracle the differential tests and fuzzers
// compare it against.

// writeTrace encodes t as a trace file, the way blbp.WriteTrace does.
func writeTrace(w io.Writer, t *Trace) error {
	return WriteSpillColumns(w, SpillHeader{Name: t.Name, Instructions: t.Instructions()}, t.Columns())
}

// readTrace decodes a trace file into record-slice form, the way
// blbp.ReadTrace does.
func readTrace(r io.Reader) (*Trace, error) {
	_, c, err := ReadSpillColumns(r)
	if err != nil {
		return nil, err
	}
	return c.Trace(), nil
}

// readSpillRecords decodes a complete trace file through the reference
// block decoder: the same framing checks as readSpillBlocksColumns, then
// appendBlockRecords per block.
func readSpillRecords(r io.Reader) (SpillHeader, *Trace, error) {
	br := bufio.NewReader(r)
	h, err := readSpillHeader(br)
	if err != nil {
		return h, nil, err
	}
	t := &Trace{Name: h.Name}
	var decoded int64
	for decoded < h.Records {
		nrec, err := binary.ReadUvarint(br)
		if err != nil {
			return h, nil, fmt.Errorf("trace: reading spill block record count: %w", err)
		}
		if nrec == 0 || nrec > spillBlockRecords || int64(nrec) > h.Records-decoded {
			return h, nil, fmt.Errorf("%w: block of %d records with %d remaining", ErrSpillMismatch, nrec, h.Records-decoded)
		}
		nbytes, err := binary.ReadUvarint(br)
		if err != nil {
			return h, nil, fmt.Errorf("trace: reading spill block size: %w", err)
		}
		if nbytes < nrec || nbytes > nrec*maxSpillRecordLen {
			return h, nil, fmt.Errorf("%w: block of %d bytes for %d records", ErrSpillMismatch, nbytes, nrec)
		}
		var sumBuf [8]byte
		if _, err := io.ReadFull(br, sumBuf[:]); err != nil {
			return h, nil, fmt.Errorf("trace: reading spill block checksum: %w", err)
		}
		block := make([]byte, nbytes)
		if _, err := io.ReadFull(br, block); err != nil {
			return h, nil, fmt.Errorf("trace: reading spill block payload: %w", err)
		}
		if got, want := fnv64a(block), binary.LittleEndian.Uint64(sumBuf[:]); got != want {
			return h, nil, fmt.Errorf("%w: block checksum %016x, header says %016x", ErrSpillMismatch, got, want)
		}
		if t.Records, err = appendBlockRecords(t.Records, block, int(nrec)); err != nil {
			return h, nil, err
		}
		decoded += int64(nrec)
	}
	t.validated = true
	return h, t, nil
}

// appendBlockRecords decodes one block's records from data (which must be
// consumed exactly) onto dst, validating each record. The PC delta chain
// starts at 0. On failure it returns dst holding the records decoded
// before the bad one, so len(dst) locates the fault.
func appendBlockRecords(dst []Record, data []byte, nrec int) ([]Record, error) {
	var prevPC uint64
	off := 0
	for i := 0; i < nrec; i++ {
		if off >= len(data) {
			return dst, fmt.Errorf("%w: block truncated at record %d", ErrSpillMismatch, i)
		}
		header := data[off]
		off++
		var rec Record
		rec.Type = BranchType(header & 0x7)
		rec.Taken = header&(1<<3) != 0
		ib, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad instr count at block record %d", ErrSpillMismatch, i)
		}
		off += n
		if ib > uint64(^uint32(0)) {
			return dst, fmt.Errorf("%w: instr count %d overflows at block record %d", ErrSpillMismatch, ib, i)
		}
		rec.InstrBefore = uint32(ib)
		pcDelta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad pc at block record %d", ErrSpillMismatch, i)
		}
		off += n
		rec.PC = pcDelta ^ prevPC
		tgtDelta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad target at block record %d", ErrSpillMismatch, i)
		}
		off += n
		rec.Target = tgtDelta ^ rec.PC
		if err := rec.Validate(); err != nil {
			return dst, fmt.Errorf("%w: block record %d: %v", ErrSpillMismatch, i, err)
		}
		prevPC = rec.PC
		dst = append(dst, rec)
	}
	if off != len(data) {
		return dst, fmt.Errorf("%w: %d trailing bytes in block", ErrSpillMismatch, len(data)-off)
	}
	return dst, nil
}

// decodeBlockBoth runs one block payload through the columnar decoder and
// the reference decoder and reports any disagreement: whether the block is
// accepted, at which record a rejected block fails, and every decoded
// field of an accepted one.
func decodeBlockBoth(data []byte, nrec int) error {
	c := NewColumns("block", nrec)
	c.setLen(nrec)
	i, fault := decodeBlockColumns(c, 0, data, nrec)
	ref, err := appendBlockRecords(nil, data, nrec)
	switch {
	case (fault == blockOK) != (err == nil):
		return fmt.Errorf("columnar fault %v at %d, reference error %v", fault, i, err)
	case err != nil:
		if i != len(ref) {
			return fmt.Errorf("columnar fault %v at record %d, reference fails at %d (%v)", fault, i, len(ref), err)
		}
		return nil
	}
	for j := range ref {
		if got := c.Record(j); got != ref[j] {
			return fmt.Errorf("record %d: columnar %+v, reference %+v", j, got, ref[j])
		}
	}
	return nil
}
