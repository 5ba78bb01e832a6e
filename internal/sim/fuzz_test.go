package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/trace"
)

// genEquivTrace synthesizes a valid trace covering all six branch types.
// shape's high nibble biases the expected same-class run length (so fuzzing
// explores both long homogeneous segments and pathological per-record
// alternation) and its low bits perturb the PC/target pools.
func genEquivTrace(seed int64, n int, shape uint8) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "fuzz"}
	runBias := int(shape>>4) + 1 // 1..16: expected run length
	pcSpan := uint64(shape&0xF) + 4
	last := trace.CondDirect
	for i := 0; i < n; i++ {
		bt := last
		if rng.Intn(runBias) == 0 {
			bt = trace.BranchType(rng.Intn(6))
		}
		last = bt
		pc := 0x1000 + uint64(rng.Intn(int(pcSpan)))*4
		target := 0x8000 + uint64(rng.Intn(16))*8
		taken := true
		if bt == trace.CondDirect {
			taken = rng.Intn(2) == 0
			target = pc + 4
			if taken {
				target = pc + 0x20
			}
		}
		tr.Append(trace.Record{
			PC: pc, Target: target, InstrBefore: uint32(rng.Intn(20)),
			Type: bt, Taken: taken,
		})
	}
	return tr
}

// equivPredictors builds one fresh suite-shaped pass: a hashed perceptron
// driving ITTAGE and BLBP.
func equivPredictors() (cond.Predictor, []predictor.Indirect) {
	return cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{
		ittage.New(ittage.DefaultConfig()),
		core.New(core.DefaultConfig()),
	}
}

// FuzzColumnarEquivalence is the differential gate for the columnar replay
// path: for any valid trace, the columnar engine (Run/RunColumns), the
// shared-tape replay, and the spill round trip through the columnar decoder
// must all reproduce the record-slice reference (RunRecords) bit for bit —
// every Result field, all six branch types, predictions included.
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0x22))
	f.Add(int64(7), uint16(50), uint8(0xF1))
	f.Add(int64(42), uint16(900), uint8(0x08))
	f.Add(int64(-3), uint16(64), uint8(0x00))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		nRec := int(n) % 2048
		if nRec == 0 {
			return
		}
		tr := genEquivTrace(seed, nRec, shape)

		cpRef, ipsRef := equivPredictors()
		ref, err := RunRecords(tr, cpRef, ipsRef, Options{})
		if err != nil {
			t.Fatal(err)
		}

		cpCol, ipsCol := equivPredictors()
		got, err := Run(tr, cpCol, ipsCol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("columnar Run diverged:\n got %+v\nwant %+v", got, ref)
		}

		// Shared-tape replay under a cond key (segment loop interchange +
		// span feeding) must match too.
		tape, err := NewTape(tr)
		if err != nil {
			t.Fatal(err)
		}
		cpTape, ipsTape := equivPredictors()
		tapeRes, err := tape.Run("hp", cpTape, ipsTape, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tapeRes, ref) {
			t.Fatalf("tape replay diverged:\n got %+v\nwant %+v", tapeRes, ref)
		}

		// The consolidated predictor shares state between the conditional
		// and indirect sides (and trains with targets), so it pins down the
		// within-segment call ordering and the TargetTrainer hoist.
		ccRef := combined.New(core.DefaultConfig())
		refC, err := RunRecords(tr, ccRef, []predictor.Indirect{ccRef.Indirect()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ccCol := combined.New(core.DefaultConfig())
		gotC, err := Run(tr, ccCol, []predictor.Indirect{ccCol.Indirect()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotC, refC) {
			t.Fatalf("columnar Run (consolidated) diverged:\n got %+v\nwant %+v", gotC, refC)
		}

		// Spill round trip columns -> bytes -> columns: decoding through the
		// columnar fast path must reproduce every record and the same replay
		// results, and the decoded columns must re-encode to the same bytes.
		h := trace.SpillHeader{Name: tr.Name, Seed: seed, Instructions: tr.Instructions()}
		var enc, re bytes.Buffer
		if err := trace.WriteSpillColumns(&enc, h, tr.Columns()); err != nil {
			t.Fatal(err)
		}
		_, cols, err := trace.ReadSpillColumns(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer trace.ReleaseColumns(cols)
		if cols.Len() != len(tr.Records) {
			t.Fatalf("columnar decode: %d records, want %d", cols.Len(), len(tr.Records))
		}
		for i := range tr.Records {
			if cols.Record(i) != tr.Records[i] {
				t.Fatalf("columnar decode record %d = %+v, want %+v", i, cols.Record(i), tr.Records[i])
			}
		}
		if err := trace.WriteSpillColumns(&re, h, cols); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), re.Bytes()) {
			t.Fatal("re-encoding the decoded columns changed the bytes")
		}
		cpSp, ipsSp := equivPredictors()
		spRes, err := RunColumns(cols, cpSp, ipsSp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spRes, ref) {
			t.Fatalf("replay of spill-decoded columns diverged:\n got %+v\nwant %+v", spRes, ref)
		}
	})
}

// TestColumnarEquivalenceSeeds runs the differential on the fuzz seed
// corpus so `go test` exercises it without the fuzz engine.
func TestColumnarEquivalenceSeeds(t *testing.T) {
	cases := []struct {
		seed  int64
		n     uint16
		shape uint8
	}{
		{1, 300, 0x22}, {7, 50, 0xF1}, {42, 900, 0x08}, {-3, 64, 0x00},
		{99, 2047, 0x71}, {5, 1, 0x30},
	}
	for _, c := range cases {
		tr := genEquivTrace(c.seed, int(c.n)%2048, c.shape)
		cpRef, ipsRef := equivPredictors()
		ref, err := RunRecords(tr, cpRef, ipsRef, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cpCol, ipsCol := equivPredictors()
		got, err := Run(tr, cpCol, ipsCol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: columnar Run diverged:\n got %+v\nwant %+v", c.seed, got, ref)
		}
	}
}
