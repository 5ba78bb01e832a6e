package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A trace file is one self-describing header followed by the trace's
// records. The header carries the full workload identity (name, seed,
// instruction budget, parameter fingerprint) plus the record count, so a
// reader can decide whether a file on disk really is the trace it wants —
// a bare name is not enough once files outlive the process that wrote them
// (stale seeds, renamed files, hash collisions in the file name). Every
// trace file input and output uses this one format (SPL3): the trace
// cache's spill tier, wspec replay nodes, cmd/tracegen, blbpsim -trace and
// the public blbp.WriteTrace/ReadTrace.
//
//	magic    "BLBPSPL3"                 (8 bytes)
//	name     uvarint length + bytes     (workload name)
//	seed     uvarint                    (two's-complement bits of the int64 seed)
//	instr    uvarint                    (instruction budget)
//	fprint   uvarint                    (generator-parameter fingerprint)
//	records  uvarint                    (total record count)
//	blocks   until records are consumed:
//	  nrec     uvarint                  (records in this block, 1..4096)
//	  nbytes   uvarint                  (encoded size of this block)
//	  checksum 8 bytes little-endian    (FNV-64a of the block bytes)
//	  payload  nbytes bytes             (nrec records)
//
// Each record is encoded as:
//
//	header      1 byte: type (bits 0..2) | taken (bit 3)
//	instrBefore uvarint
//	pc          uvarint of pc XOR prevPC   (delta-style, compresses loops;
//	                                       prevPC restarts at 0 per block)
//	target      uvarint of target XOR pc
//
// Blocking serves the reader: each block is checksummed and then decoded
// from one contiguous in-memory slice, and a corrupt or truncated file
// fails at the first bad block instead of after hashing the whole payload.
// Restarting the delta chain per block keeps blocks independently
// decodable.
//
// The fingerprint hashes the workload's canonicalized generator parameters
// (workload.FingerprintCanon), completing the identity: two workloads can
// share a name, seed and budget yet generate different traces once specs
// are user-authored data. Files in any other format, including the retired
// earlier spill versions, fail with ErrBadSpillMagic; the trace cache
// counts such a file as a spill error and rebuilds the trace.
//
// Records decode straight into a pooled Columns arena with zero per-record
// allocation (see ReadSpillColumns).

var spillMagic = [8]byte{'B', 'L', 'B', 'P', 'S', 'P', 'L', '3'}

// spillBlockRecords is the encoder's records-per-block count and the
// decoder's limit. At the format's worst-case record size (26 bytes) a
// block stays comfortably inside CPU caches while amortizing the
// per-block checksum.
const spillBlockRecords = 4096

// maxSpillRecordLen bounds one encoded record: 1 header byte, a 5-byte
// uvarint for the 32-bit instruction count, and two 10-byte uvarints for
// the PC and target deltas. Used to reject absurd block sizes before
// allocating.
const maxSpillRecordLen = 1 + 5 + 10 + 10

// ErrBadSpillMagic is returned when decoding data that is not a BLBP trace
// file (including files in retired earlier formats).
var ErrBadSpillMagic = errors.New("trace: bad magic (not a BLBP spill file)")

// ErrSpillMismatch is returned when a trace file's payload does not match
// its own header (checksum, record count, or block structure), i.e. the
// file is corrupt or was truncated by a crash.
var ErrSpillMismatch = errors.New("trace: spill payload does not match header")

// SpillHeader is the self-describing preamble of a trace file.
type SpillHeader struct {
	// Name, Seed and Instructions are the workload identity of the payload
	// (workload.Identity, spelled out so this package need not import it).
	Name         string
	Seed         int64
	Instructions int64
	// Fingerprint hashes the workload's canonicalized generator parameters
	// (workload.Identity.Fingerprint).
	Fingerprint uint64
	// Records is the payload's record count.
	Records int64
}

// writeSpillHeader writes the header fields in order.
func writeSpillHeader(bw *bufio.Writer, h SpillHeader, records int) error {
	if _, err := bw.Write(spillMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(h.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(h.Name); err != nil {
		return err
	}
	for _, v := range [...]uint64{uint64(h.Seed), uint64(h.Instructions), h.Fingerprint} {
		if err := putUvarint(v); err != nil {
			return err
		}
	}
	return putUvarint(uint64(records))
}

// readSpillHeader decodes the header from br.
func readSpillHeader(br *bufio.Reader) (SpillHeader, error) {
	var h SpillHeader
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return h, fmt.Errorf("trace: reading spill magic: %w", err)
	}
	if m != spillMagic {
		return h, ErrBadSpillMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill name length: %w", err)
	}
	const maxNameLen = 1 << 16
	if nameLen > maxNameLen {
		return h, fmt.Errorf("trace: spill name length %d exceeds limit", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return h, fmt.Errorf("trace: reading spill name: %w", err)
	}
	h.Name = string(name)
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill seed: %w", err)
	}
	h.Seed = int64(seed)
	instr, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill instruction budget: %w", err)
	}
	h.Instructions = int64(instr)
	if h.Fingerprint, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("trace: reading spill fingerprint: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill record count: %w", err)
	}
	const maxRecords = 1 << 32
	if count > maxRecords {
		return h, fmt.Errorf("trace: spill record count %d exceeds limit", count)
	}
	h.Records = int64(count)
	return h, nil
}

// ReadSpillHeader decodes only the header of a trace file, leaving the
// payload unread — the cheap probe a cache uses to index a directory of
// spill files by identity without decoding any records.
func ReadSpillHeader(r io.Reader) (SpillHeader, error) {
	return readSpillHeader(bufio.NewReader(r))
}

// WriteSpillColumns encodes c as a trace file: header then checksummed
// record blocks. Name, Seed, Instructions and Fingerprint are taken from h;
// Records is computed from c and h's value for it is ignored.
func WriteSpillColumns(w io.Writer, h SpillHeader, c *Columns) error {
	if err := c.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeSpillHeader(bw, h, c.Len()); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	scratch := make([]byte, 0, spillBlockRecords*8)
	pc, target, instr := c.pc, c.target, c.instrBefore
	for start := 0; start < c.Len(); start += spillBlockRecords {
		end := start + spillBlockRecords
		if end > c.Len() {
			end = c.Len()
		}
		scratch = scratch[:0]
		var prevPC uint64
		for i := start; i < end; i++ {
			header := c.typ[i]
			if c.Taken(i) {
				header |= 1 << 3
			}
			scratch = append(scratch, header)
			scratch = binary.AppendUvarint(scratch, uint64(instr[i]))
			scratch = binary.AppendUvarint(scratch, pc[i]^prevPC)
			scratch = binary.AppendUvarint(scratch, target[i]^pc[i])
			prevPC = pc[i]
		}
		n := binary.PutUvarint(buf[:], uint64(end-start))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		n = binary.PutUvarint(buf[:], uint64(len(scratch)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:8], fnv64a(scratch))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpillColumns decodes a complete trace file into columnar form: the
// header, then every block, verified against the header's record count,
// the per-block checksums, and the per-record validation. Blocks are
// bulk-decoded into pooled column arrays; pass the result to ReleaseColumns
// when done to recycle the arena.
func ReadSpillColumns(r io.Reader) (SpillHeader, *Columns, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readSpillHeader(br)
	if err != nil {
		return h, nil, err
	}
	c, err := readSpillBlocksColumns(br, h)
	if err != nil {
		return h, nil, err
	}
	return h, c, nil
}

// readSpillBlocksColumns decodes the block sequence into a pooled Columns:
// each block's size is checked before allocating, its checksum verified,
// and its records bulk-decoded by index into the column arrays.
func readSpillBlocksColumns(br *bufio.Reader, h SpillHeader) (*Columns, error) {
	// Cap the initial arena size: a corrupt record count must not commit
	// gigabytes up front. The arena is taken only once the first block has
	// passed its size and checksum checks. Past the cap it grows
	// geometrically (never past the header's count, which every decoded
	// block has stayed within), so each column is recopied O(log n) times
	// and a corrupt file fails at its first bad block having allocated at
	// most twice the records already verified.
	capHint := h.Records
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	var c *Columns
	arena := func() {
		c = newPooledColumns(h.Name, int(capHint))
		c.setLen(0)
	}
	var block []byte
	var decoded int64
	fail := func(err error) (*Columns, error) {
		ReleaseColumns(c)
		return nil, err
	}
	for decoded < h.Records {
		nrec, err := binary.ReadUvarint(br)
		if err != nil {
			return fail(fmt.Errorf("trace: reading spill block record count: %w", err))
		}
		// The writer never emits more than spillBlockRecords per block, so
		// a larger count is corruption — and rejecting it here bounds the
		// block buffer below before a single payload byte is read.
		if nrec == 0 || nrec > spillBlockRecords || int64(nrec) > h.Records-decoded {
			return fail(fmt.Errorf("%w: block of %d records with %d remaining", ErrSpillMismatch, nrec, h.Records-decoded))
		}
		nbytes, err := binary.ReadUvarint(br)
		if err != nil {
			return fail(fmt.Errorf("trace: reading spill block size: %w", err))
		}
		if nbytes < nrec || nbytes > nrec*maxSpillRecordLen {
			return fail(fmt.Errorf("%w: block of %d bytes for %d records", ErrSpillMismatch, nbytes, nrec))
		}
		var sumBuf [8]byte
		if _, err := io.ReadFull(br, sumBuf[:]); err != nil {
			return fail(fmt.Errorf("trace: reading spill block checksum: %w", err))
		}
		want := binary.LittleEndian.Uint64(sumBuf[:])
		if uint64(cap(block)) < nbytes {
			block = make([]byte, nbytes)
		}
		block = block[:nbytes]
		if _, err := io.ReadFull(br, block); err != nil {
			return fail(fmt.Errorf("trace: reading spill block payload: %w", err))
		}
		if got := fnv64a(block); got != want {
			return fail(fmt.Errorf("%w: block checksum %016x, header says %016x", ErrSpillMismatch, got, want))
		}
		if c == nil {
			arena()
		}
		base := int(decoded)
		if need := base + int(nrec); cap(c.pc) < need {
			c.grow(min(max(need, 2*cap(c.pc)), int(h.Records)))
		}
		c.setLen(base + int(nrec))
		if i, fault := decodeBlockColumns(c, base, block, int(nrec)); fault != blockOK {
			return fail(fmt.Errorf("%w: %v at block record %d", ErrSpillMismatch, fault, i))
		}
		decoded += int64(nrec)
	}
	if c == nil {
		arena() // an empty trace has no blocks
	}
	c.finalize()
	// Every record was validated during decoding; mark the columns so
	// simulation passes skip revalidation.
	c.validated = true
	return c, nil
}

// blockFault is decodeBlockColumns' failure cause: a plain code, so the hot
// decoder reports malformed input without building an error value.
type blockFault uint8

const (
	blockOK blockFault = iota
	faultTruncated
	faultInstrVarint
	faultInstrOverflow
	faultPCVarint
	faultTargetVarint
	faultBadType
	faultNotTaken
	faultTrailing
)

var blockFaultText = [...]string{
	blockOK:            "ok",
	faultTruncated:     "block truncated",
	faultInstrVarint:   "bad instr count",
	faultInstrOverflow: "instr count overflows 32 bits",
	faultPCVarint:      "bad pc",
	faultTargetVarint:  "bad target",
	faultBadType:       "invalid branch type",
	faultNotTaken:      "unconditional branch marked not taken",
	faultTrailing:      "trailing bytes",
}

func (f blockFault) String() string { return blockFaultText[f] }

// decodeBlockColumns bulk-decodes one block's records (PC delta chain
// starting at 0) straight into the column arrays at index base. data must
// be consumed exactly. Validation is inlined — Record.Validate's two
// conditions plus the varint and overflow checks — and a malformed block
// reports the index of the offending record within the block and its cause
// (faultTrailing reports nrec), blockOK otherwise.
//
//blbp:hot
func decodeBlockColumns(c *Columns, base int, data []byte, nrec int) (int, blockFault) {
	pcs := c.pc[base : base+nrec]
	targets := c.target[base : base+nrec]
	instrs := c.instrBefore[base : base+nrec]
	typs := c.typ[base : base+nrec]
	var prevPC uint64
	off := 0
	for i := 0; i < nrec; i++ {
		if off >= len(data) {
			return i, faultTruncated
		}
		header := data[off]
		off++
		typ := header & 0x7
		taken := header&(1<<3) != 0
		if typ >= numBranchTypes {
			return i, faultBadType
		}
		if !taken && typ != uint8(CondDirect) {
			return i, faultNotTaken
		}
		ib, n := uvarintFast(data, off)
		if n <= 0 {
			return i, faultInstrVarint
		}
		if ib > uint64(^uint32(0)) {
			return i, faultInstrOverflow
		}
		off += n
		pcDelta, n := uvarintFast(data, off)
		if n <= 0 {
			return i, faultPCVarint
		}
		off += n
		pc := pcDelta ^ prevPC
		tgtDelta, n := uvarintFast(data, off)
		if n <= 0 {
			return i, faultTargetVarint
		}
		off += n
		pcs[i] = pc
		targets[i] = tgtDelta ^ pc
		instrs[i] = uint32(ib)
		typs[i] = typ
		if taken {
			j := uint(base + i)
			c.taken[j>>6] |= 1 << (j & 63)
		}
		prevPC = pc
	}
	if off != len(data) {
		return nrec, faultTrailing
	}
	return nrec, blockOK
}

// uvarintFast is binary.Uvarint with an inlined single-byte fast path:
// trace deltas are overwhelmingly one byte (XOR of consecutive loop PCs),
// so the common case avoids the call and its loop setup entirely. Returns
// n <= 0 exactly when binary.Uvarint would (truncated or oversized varint).
func uvarintFast(data []byte, off int) (uint64, int) {
	if off < len(data) {
		if b := data[off]; b < 0x80 {
			return uint64(b), 1
		}
	}
	return binary.Uvarint(data[off:])
}

// fnv64a is an allocation-free FNV-64a over data (hash/fnv's New64a forces
// a heap allocation per hasher; the decoder sums one block at a time).
//
//blbp:hot
func fnv64a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}
