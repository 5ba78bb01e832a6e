package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// These tests drive the one trace file format through the same shorthands
// blbp.WriteTrace and blbp.ReadTrace use (writeTrace/readTrace).

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Records: []Record{
			{PC: 0x400000, Target: 0x400010, InstrBefore: 3, Type: CondDirect, Taken: true},
			{PC: 0x400010, Target: 0x400014, InstrBefore: 0, Type: CondDirect, Taken: false},
			{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true},
			{PC: 0x7f0040, Target: 0x400108, InstrBefore: 9, Type: Return, Taken: true},
			{PC: 0x400200, Target: 0x500000, InstrBefore: 100, Type: IndirectJump, Taken: true},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sampleTrace()
	if err := writeTrace(&buf, orig); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Name != orig.Name {
		t.Errorf("name = %q, want %q", got.Name, orig.Name)
	}
	if !reflect.DeepEqual(got.Records, orig.Records) {
		t.Errorf("records differ:\n got %+v\nwant %+v", got.Records, orig.Records)
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := readTrace(bytes.NewReader([]byte("NOTATRACEFILE___")))
	if !errors.Is(err, ErrBadSpillMagic) {
		t.Errorf("read bad magic: err = %v, want ErrBadSpillMagic", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, sampleTrace()); err != nil {
		t.Fatalf("write: %v", err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail cleanly, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := readTrace(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("read of %d-byte prefix succeeded, want error", n)
		}
	}
}

func TestWriteRejectsInvalidRecord(t *testing.T) {
	for _, r := range []Record{
		{Type: BranchType(7), Taken: true},
		{Type: IndirectJump, Taken: false},
	} {
		tr := &Trace{Records: []Record{r}}
		var buf bytes.Buffer
		if err := writeTrace(&buf, tr); err == nil {
			t.Errorf("write accepted invalid record %+v", r)
		}
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, &Trace{Name: ""}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Records) != 0 {
		t.Errorf("got %d records, want 0", len(got.Records))
	}
}

// randomTrace builds an arbitrary-but-valid trace from a rand source, used
// by the property-based round-trip test.
func randomTrace(r *rand.Rand) *Trace {
	n := r.Intn(200)
	tr := &Trace{Name: "fuzz"}
	for i := 0; i < n; i++ {
		rec := Record{
			PC:          r.Uint64(),
			Target:      r.Uint64(),
			InstrBefore: uint32(r.Intn(1 << 16)),
			Type:        BranchType(r.Intn(numBranchTypes)),
		}
		if rec.Type.IsConditional() {
			rec.Taken = r.Intn(2) == 0
		} else {
			rec.Taken = true
		}
		tr.Append(rec)
	}
	return tr
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		orig := randomTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := writeTrace(&buf, orig); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := readTrace(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if len(got.Records) != len(orig.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != orig.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// A tight loop — same PC repeatedly — should compress far below the
	// naive 25+ bytes/record encoding thanks to XOR deltas.
	tr := &Trace{Name: "loop"}
	for i := 0; i < 1000; i++ {
		tr.Append(Record{PC: 0x400100, Target: 0x400000, InstrBefore: 5, Type: CondDirect, Taken: true})
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	perRecord := float64(buf.Len()) / 1000
	if perRecord > 8 {
		t.Errorf("loop trace uses %.1f bytes/record, want <= 8", perRecord)
	}
}
