package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReadNeverPanicsOnGarbage feeds random byte strings (with and without
// a valid magic prefix) to the decoder: it must fail cleanly, never panic,
// and never allocate absurd amounts for corrupt length fields.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, withMagic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(512)
		data := make([]byte, 0, n+8)
		if withMagic {
			data = append(data, spillMagic[:]...)
		}
		for i := 0; i < n; i++ {
			data = append(data, byte(rng.Intn(256)))
		}
		tr, err := readTrace(bytes.NewReader(data))
		if err == nil {
			// A random payload can occasionally decode; it must then be a
			// fully valid trace.
			for _, r := range tr.Records {
				if r.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReadHugeCountRejected ensures corrupt record counts are rejected
// before allocation.
func TestReadHugeCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	buf.Write([]byte{0, 0, 0, 0}) // empty name, seed, instructions, fingerprint
	// A varint encoding an enormous record count.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if _, err := readTrace(&buf); err == nil {
		t.Error("absurd record count accepted")
	}
}

// TestReadHugeNameRejected ensures corrupt name lengths are rejected.
func TestReadHugeNameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // name length ~4G
	if _, err := readTrace(&buf); err == nil {
		t.Error("absurd name length accepted")
	}
}

// FuzzRead is the native fuzz target for the trace file decoder. Every
// input goes through two checks:
//   - the columnar reader (ReadSpillColumns) and the record-slice reference
//     reader accept and reject the same files, and decode accepted ones to
//     the same header and records, which survive a re-encode;
//   - the same bytes, read as one block payload (the first byte picks the
//     record count), make decodeBlockColumns and the reference
//     appendBlockRecords agree on acceptance, on the failing record, and
//     on every decoded field.
func FuzzRead(f *testing.F) {
	// Seed with a valid encoded trace and a few corruptions of it.
	var buf bytes.Buffer
	valid := &Trace{Name: "seed", Records: []Record{
		{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true},
		{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true},
	}}
	if err := writeTrace(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(spillMagic[:])
	corrupt := append([]byte(nil), buf.Bytes()...)
	if len(corrupt) > 12 {
		corrupt[12] ^= 0xFF
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			if err := decodeBlockBoth(data[1:], 1+int(data[0])%16); err != nil {
				t.Fatalf("block decoders disagree: %v", err)
			}
		}
		h, cols, err := ReadSpillColumns(bytes.NewReader(data))
		hRef, ref, refErr := readSpillRecords(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("columnar reader error %v, reference reader error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if h != hRef || cols.Len() != len(ref.Records) {
			t.Fatalf("readers disagree: header %+v/%d records vs %+v/%d", h, cols.Len(), hRef, len(ref.Records))
		}
		for i := range ref.Records {
			if r := cols.Record(i); r != ref.Records[i] {
				t.Fatalf("record %d: columnar %+v, reference %+v", i, r, ref.Records[i])
			}
			// Successful decodes must be internally valid.
			if vErr := ref.Records[i].Validate(); vErr != nil {
				t.Fatalf("decoded invalid record: %v", vErr)
			}
		}
		// ...and must survive a re-encode. The bytes may differ (varints
		// need not be minimal; bytes after the last block are ignored), the
		// decoded trace may not.
		var out bytes.Buffer
		if err := WriteSpillColumns(&out, h, cols); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		h2, back, err := readSpill(out.Bytes())
		if err != nil {
			t.Fatalf("decoding the re-encode failed: %v", err)
		}
		if h2 != h || len(back.Records) != len(ref.Records) {
			t.Fatalf("re-encode changed shape: %+v -> %+v", h, h2)
		}
		for i := range ref.Records {
			if back.Records[i] != ref.Records[i] {
				t.Fatalf("record %d changed in re-encode", i)
			}
		}
	})
}

// FuzzTraceRoundTrip drives the encoder and decoder together: fuzz bytes
// are shaped into an arbitrary-but-valid trace, and write -> read -> write
// must reproduce both the records and the exact encoded bytes, with the
// reference reader decoding the encoding to the same records.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("w", []byte{})
	f.Add("loop", []byte{
		0x00, 0x40, 0x00, 0x00, 0x20, 0x40, 0x00, 0x00, 0x03, 0x00, 0x09,
		0x00, 0x40, 0x01, 0x00, 0x00, 0x00, 0x7f, 0x00, 0x0c, 0x00, 0x03,
	})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if len(name) > 1<<12 {
			name = name[:1<<12]
		}
		tr := &Trace{Name: name}
		for len(data) >= 11 {
			chunk := data[:11]
			data = data[11:]
			var pc, target uint64
			for i := 0; i < 4; i++ {
				pc |= uint64(chunk[i]) << (8 * i)
				target |= uint64(chunk[4+i]) << (8 * i)
			}
			typ := BranchType(chunk[10] % numBranchTypes)
			taken := chunk[10]&0x40 != 0
			if !typ.IsConditional() {
				taken = true // Validate requires unconditional types taken
			}
			tr.Append(Record{
				PC:          pc,
				Target:      target,
				InstrBefore: uint32(chunk[8]) | uint32(chunk[9])<<8,
				Type:        typ,
				Taken:       taken,
			})
		}
		var enc bytes.Buffer
		if err := writeTrace(&enc, tr); err != nil {
			t.Fatalf("encoding a valid trace failed: %v", err)
		}
		got, err := readTrace(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		_, ref, err := readSpillRecords(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("reference decoder rejected our own encoding: %v", err)
		}
		if got.Name != tr.Name || len(got.Records) != len(tr.Records) || len(ref.Records) != len(tr.Records) {
			t.Fatalf("round trip changed shape: name %q->%q, records %d->%d (reference %d)",
				tr.Name, got.Name, len(tr.Records), len(got.Records), len(ref.Records))
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] || ref.Records[i] != tr.Records[i] {
				t.Fatalf("record %d changed in round trip: %+v -> %+v (reference %+v)", i, tr.Records[i], got.Records[i], ref.Records[i])
			}
		}
		var re bytes.Buffer
		if err := writeTrace(&re, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), re.Bytes()) {
			t.Fatal("re-encoded bytes differ from the original encoding")
		}
	})
}
