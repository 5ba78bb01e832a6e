package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func spillTestTrace() *Trace {
	t := &Trace{Name: "spill-wl"}
	t.Append(Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true})
	t.Append(Record{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true})
	t.Append(Record{PC: 0x7f0040, Target: 0x400104, InstrBefore: 7, Type: Return, Taken: true})
	return t
}

// writeSpill encodes t's columns under header h.
func writeSpill(t *testing.T, w io.Writer, h SpillHeader, tr *Trace) {
	t.Helper()
	if err := WriteSpillColumns(w, h, tr.Columns()); err != nil {
		t.Fatal(err)
	}
}

// readSpill decodes a trace file into record-slice form.
func readSpill(data []byte) (SpillHeader, *Trace, error) {
	h, c, err := ReadSpillColumns(bytes.NewReader(data))
	if err != nil {
		return h, nil, err
	}
	return h, c.Trace(), nil
}

func TestSpillRoundTrip(t *testing.T) {
	tr := spillTestTrace()
	want := SpillHeader{Name: tr.Name, Seed: -42, Instructions: 9001, Fingerprint: 0xfeedface}
	var buf bytes.Buffer
	writeSpill(t, &buf, want, tr)
	h, got, err := readSpill(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want.Records = int64(len(tr.Records))
	if h != want {
		t.Errorf("header = %+v, want %+v", h, want)
	}
	if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
		t.Fatalf("payload shape %q/%d, want %q/%d", got.Name, len(got.Records), tr.Name, len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d differs after round trip", i)
		}
	}
}

func TestReadSpillHeaderOnly(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name, Seed: 7, Instructions: 500, Fingerprint: 9}, tr)
	h, err := ReadSpillHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != tr.Name || h.Seed != 7 || h.Instructions != 500 || h.Fingerprint != 9 || h.Records != int64(len(tr.Records)) {
		t.Errorf("header = %+v", h)
	}
}

// bigSpillTrace spans several encoder blocks.
func bigSpillTrace(records int) *Trace {
	t := &Trace{Name: "spill-big"}
	pc := uint64(0x400000)
	for i := 0; i < records; i++ {
		switch i % 3 {
		case 0:
			t.Append(Record{PC: pc, Target: pc + 0x20, InstrBefore: uint32(i % 17), Type: CondDirect, Taken: i%2 == 0})
		case 1:
			t.Append(Record{PC: pc + 4, Target: uint64(0x7f0000 + i%5*64), InstrBefore: 9, Type: IndirectCall, Taken: true})
		default:
			t.Append(Record{PC: pc + 8, Target: pc - 0x100, InstrBefore: 2, Type: Return, Taken: true})
		}
		pc += uint64(i%7) * 16
	}
	return t
}

func TestSpillRoundTripMultiBlock(t *testing.T) {
	tr := bigSpillTrace(3*spillBlockRecords + 17)
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name, Seed: 5, Instructions: 1e6}, tr)
	h, got, err := readSpill(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != int64(len(tr.Records)) || len(got.Records) != len(tr.Records) {
		t.Fatalf("record counts: header %d, decoded %d, want %d", h.Records, len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs after multi-block round trip", i)
		}
	}
	// The reference decoder reads the same bytes to the same records.
	_, ref, err := readSpillRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if ref.Records[i] != tr.Records[i] {
			t.Fatalf("reference decoder: record %d differs", i)
		}
	}
}

// goldenRecords parses testdata/golden-mono.records: a comment line with
// the workload identity, then one "pc target instr type taken" line per
// record (hex, hex, decimal, decimal, 0/1).
func goldenRecords(t *testing.T) (SpillHeader, []Record) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden-mono.records"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var h SpillHeader
	var recs []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# golden") {
			if _, err := fmt.Sscanf(line, "# %s seed=%d instructions=%d fingerprint=%x records=%d",
				&h.Name, &h.Seed, &h.Instructions, &h.Fingerprint, &h.Records); err != nil {
				t.Fatalf("identity line %q: %v", line, err)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		var r Record
		var typ, taken int
		if _, err := fmt.Sscanf(line, "%x %x %d %d %d", &r.PC, &r.Target, &r.InstrBefore, &typ, &taken); err != nil {
			t.Fatalf("record line %q: %v", line, err)
		}
		r.Type, r.Taken = BranchType(typ), taken == 1
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if h.Name == "" || int64(len(recs)) != h.Records {
		t.Fatalf("golden listing: identity %+v with %d records", h, len(recs))
	}
	return h, recs
}

// TestGoldenSPL3 pins the wire format: the golden file was written by an
// earlier revision's encoder from a fixed mono workload, and the current
// writer must reproduce it byte for byte while the reader decodes it to
// the recorded records.
func TestGoldenSPL3(t *testing.T) {
	want, recs := goldenRecords(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-mono.spl3"))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Name: want.Name, Records: recs}
	var buf bytes.Buffer
	writeSpill(t, &buf, want, tr)
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("WriteSpillColumns: %d bytes differ from the %d-byte golden file", buf.Len(), len(golden))
	}
	h, got, err := readSpill(golden)
	if err != nil {
		t.Fatal(err)
	}
	if h != want {
		t.Errorf("golden header = %+v, want %+v", h, want)
	}
	if len(got.Records) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(recs))
	}
	for i := range recs {
		if got.Records[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], recs[i])
		}
	}
}

// TestGoldenLegacyFormatsRejected: files in the retired formats (spill
// SPL1 and SPL2, the bare BLBPTRC1 trace format), written by an earlier
// revision from the same workload as the SPL3 golden, are not trace files
// any more. Both the header probe and the full reader say so.
func TestGoldenLegacyFormatsRejected(t *testing.T) {
	for _, name := range []string{"golden-mono.spl1", "golden-mono.spl2", "golden-mono.trc"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSpillHeader(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
			t.Errorf("%s: header probe error = %v, want ErrBadSpillMagic", name, err)
		}
		if _, _, err := ReadSpillColumns(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
			t.Errorf("%s: reader error = %v, want ErrBadSpillMagic", name, err)
		}
	}
}

// TestSpillBlockCorruption flips a byte deep inside a middle block: the
// per-block checksum must catch it without decoding past that block.
func TestSpillBlockCorruption(t *testing.T) {
	tr := bigSpillTrace(3 * spillBlockRecords)
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr)
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x01
	if _, _, err := readSpill(data); !errors.Is(err, ErrSpillMismatch) {
		t.Errorf("corrupt block error = %v, want ErrSpillMismatch", err)
	}
}

func TestReadSpillRejectsBarePayload(t *testing.T) {
	// The pre-header trace format was a bare BLBPTRC1 payload; it must be
	// recognizable as not-a-trace-file so caches can prune stale files.
	data, err := os.ReadFile(filepath.Join("testdata", "golden-mono.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSpill(data); !errors.Is(err, ErrBadSpillMagic) {
		t.Errorf("bare payload error = %v, want ErrBadSpillMagic", err)
	}
	if _, err := ReadSpillHeader(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
		t.Errorf("header probe error = %v, want ErrBadSpillMagic", err)
	}
}

func TestReadSpillDetectsCorruptPayload(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr)
	data := buf.Bytes()
	// Flip one bit in the last payload byte; the checksum must catch it
	// even if the payload still happens to decode.
	data[len(data)-1] ^= 0x40
	if _, _, err := readSpill(data); !errors.Is(err, ErrSpillMismatch) {
		t.Errorf("corrupt payload error = %v, want ErrSpillMismatch", err)
	}
}

func TestReadSpillDetectsTruncation(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr)
	data := buf.Bytes()
	for cut := len(data) - 1; cut > len(data)-6; cut-- {
		if _, _, err := readSpill(data[:cut]); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(data))
		}
	}
	// Truncation inside the header must fail the cheap probe too.
	if _, err := ReadSpillHeader(bytes.NewReader(data[:5])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadSpillHugeNameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // name length ~4G
	if _, err := ReadSpillHeader(&buf); err == nil {
		t.Error("absurd spill name length accepted")
	}
}

func TestReadSpillEmpty(t *testing.T) {
	if _, err := ReadSpillHeader(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) && err == nil {
		t.Error("empty input accepted")
	}
}

// oversizedBlockFile is a valid header claiming records records, all in
// one block of the largest size the per-record bound allows, with no
// payload behind it.
func oversizedBlockFile(records uint64) []byte {
	data := append([]byte(nil), spillMagic[:]...)
	data = append(data, 0)       // empty name
	data = append(data, 0, 0, 0) // seed, instructions, fingerprint
	data = binary.AppendUvarint(data, records)
	data = binary.AppendUvarint(data, records) // one block holding them all
	data = binary.AppendUvarint(data, records*maxSpillRecordLen)
	return append(data, make([]byte, 8)...) // checksum; the payload is missing
}

// TestSpillOversizedBlockRejected: a 32-byte file whose single block claims
// 2^22 records used to make the decoder allocate the whole ~105 MiB block
// buffer before reading a payload byte (and ~111 GB at the 2^32 header
// limit, a fatal out-of-memory). The writer never emits more than
// spillBlockRecords per block, so such a block is corruption: the decoder
// must say so and allocate next to nothing.
func TestSpillOversizedBlockRejected(t *testing.T) {
	for _, records := range []uint64{spillBlockRecords + 1, 1 << 22, 1 << 32} {
		data := oversizedBlockFile(records)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err := ReadSpillColumns(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSpillMismatch) {
			t.Errorf("%d-byte file, block of %d records: error = %v, want ErrSpillMismatch", len(data), records, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%d-byte file, block of %d records: decoder allocated %d bytes, want < 1 MB", len(data), records, d)
		}
		if _, _, err := readSpillRecords(bytes.NewReader(data)); !errors.Is(err, ErrSpillMismatch) {
			t.Errorf("reference decoder, block of %d records: error = %v, want ErrSpillMismatch", records, err)
		}
	}
}

// TestBlockFaultsMatchReference feeds hand-made malformed blocks, one per
// fault cause, to both block decoders: they must reject each at the same
// record, and accept the well-formed control.
func TestBlockFaultsMatchReference(t *testing.T) {
	rec := func(header byte, ib, pc, tgt uint64) []byte {
		b := []byte{header}
		b = binary.AppendUvarint(b, ib)
		b = binary.AppendUvarint(b, pc)
		return binary.AppendUvarint(b, tgt)
	}
	good := rec(byte(CondDirect)|1<<3, 3, 0x400000, 0x20)
	cases := []struct {
		name  string
		data  []byte
		nrec  int
		fault blockFault
	}{
		{"ok", append(append([]byte(nil), good...), good...), 2, blockOK},
		{"truncated", good, 2, faultTruncated},
		{"instr varint", append(append([]byte(nil), good...), 0x08, 0x80), 2, faultInstrVarint},
		{"instr overflow", rec(0x08, 1<<32, 1, 1), 1, faultInstrOverflow},
		{"pc varint", []byte{0x08, 0x01, 0x80}, 1, faultPCVarint},
		{"target varint", []byte{0x08, 0x01, 0x01, 0x80}, 1, faultTargetVarint},
		{"bad type", rec(0x0F, 1, 1, 1), 1, faultBadType},
		{"not taken", append(append([]byte(nil), good...), rec(byte(IndirectJump), 1, 1, 1)...), 2, faultNotTaken},
		{"trailing", append(append([]byte(nil), good...), 0), 1, faultTrailing},
	}
	for _, tc := range cases {
		c := NewColumns("block", tc.nrec)
		c.setLen(tc.nrec)
		if _, fault := decodeBlockColumns(c, 0, tc.data, tc.nrec); fault != tc.fault {
			t.Errorf("%s: fault %v, want %v", tc.name, fault, tc.fault)
		}
		if err := decodeBlockBoth(tc.data, tc.nrec); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func BenchmarkReadSpill(b *testing.B) {
	tr := bigSpillTrace(200_000)
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 3, Instructions: 1e6}, tr.Columns()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, got, err := ReadSpillColumns(bytes.NewReader(data))
		if err != nil || got.Len() != len(tr.Records) {
			b.Fatalf("decode: %v", err)
		}
		ReleaseColumns(got)
	}
}

// TestSpillDecodeGrowsGeometrically: past the capped first arena the
// decoder used to grow the columns to exactly the records decoded so far on
// every block, recopying all of them each time (a 200k-record file
// allocated ~96 MB for ~4 MB of columns). Growth is geometric now, so the
// decode allocates a small multiple of what the decoded columns hold.
func TestSpillDecodeGrowsGeometrically(t *testing.T) {
	const records = 200_000
	tr := bigSpillTrace(records)
	var buf bytes.Buffer
	writeSpill(t, &buf, SpillHeader{Name: tr.Name}, tr)
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, c, err := ReadSpillColumns(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseColumns(c)
	if c.Len() != records {
		t.Fatalf("decoded %d records, want %d", c.Len(), records)
	}
	// One uint64 PC and target, a uint32 InstrBefore, a type byte and a
	// taken bit per record, plus the segment list.
	colBytes := uint64(records)*(8+8+4+1) + uint64(len(c.TakenWords()))*8 +
		uint64(len(c.Segments()))*uint64(unsafe.Sizeof(Segment{}))
	if d := after.TotalAlloc - before.TotalAlloc; d >= 3*colBytes {
		t.Errorf("decoding %d records allocated %d bytes, want < 3 x %d column bytes", records, d, colBytes)
	}
}
