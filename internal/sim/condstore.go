package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/trace"
)

// CondKey returns the canonical tape-sharing key of a conditional predictor
// configuration: the substrate name, a slash, and the configuration's JSON.
// Two configurations share a key exactly when they marshal alike, so the
// key names what is simulated rather than a label for it. That is what
// lets a count be memoised across passes and persisted across processes.
func CondKey(substrate string, cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("sim: %s config does not marshal: %v", substrate, err))
	}
	return substrate + "/" + string(b)
}

// CondStore is where a tape looks for a conditional configuration's
// misprediction count before simulating it, and where it records the
// counts it does simulate. tracecache attaches one per trace, backed by an
// index file in the spill directory (see Tape.SetCondStore).
//
// salt returns the code salt of the configuration (CondSalt), computing it
// on first use; ok is false when the caller has no constructor to compute
// it with, and then nothing may be served or recorded. A store calls salt
// only when it needs it, so a store with nothing persisted costs nothing.
type CondStore interface {
	LoadCond(key string, salt func() (uint64, bool)) (mispredicts int64, ok bool)
	SaveCond(key string, salt func() (uint64, bool), mispredicts int64)
}

// condSaltVersion is the format part of every code salt. Bump it when the
// meaning of a persisted count changes (what the tape counts). A change in
// how a predictor behaves needs no bump: the probe digest covers it.
const condSaltVersion = 1

// probeRecords is the length of the fixed probe trace behind CondSalt.
const probeRecords = 1 << 14

var (
	saltMu sync.Mutex
	salts  = map[string]*saltMemo{}

	probeOnce sync.Once
	probe     *trace.Columns

	condCtors sync.Map // key -> func() cond.Predictor
)

type saltMemo struct {
	once sync.Once
	v    uint64
}

// CondSalt returns the code salt of the configuration key names: the salt
// format version plus a digest of what a fresh predictor from newCond does
// on a fixed built-in probe trace — its misprediction count, name, storage
// budget, and its EncodeState bytes when it has them. A code change that
// alters the predictor's behaviour changes the salt, so counts persisted by
// the old code miss on their own. Computed once per process and key.
func CondSalt(key string, newCond func() cond.Predictor) uint64 {
	saltMu.Lock()
	m := salts[key]
	if m == nil {
		m = &saltMemo{}
		salts[key] = m
	}
	saltMu.Unlock()
	m.once.Do(func() { m.v = probeDigest(newCond()) })
	return m.v
}

// probeDigest drives cp over the probe trace and digests what it did.
func probeDigest(cp cond.Predictor) uint64 {
	probeOnce.Do(func() { probe = probeColumns() })
	mis := (&Tape{cols: probe}).simulateCond(cp)
	h := sha256.New()
	var word [8]byte
	for _, v := range []uint64{condSaltVersion, uint64(mis), uint64(cp.StorageBits())} {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	h.Write([]byte(cp.Name()))
	if s, ok := predictor.AsSnapshotter(cp); ok {
		if err := s.EncodeState(h); err != nil {
			panic(fmt.Sprintf("sim: encoding %s state for its code salt: %v", cp.Name(), err))
		}
	}
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// probeColumns builds the probe trace: conditional branches at 64 sites
// (per-site periodic patterns, some correlated with the previous outcome,
// some noisy) interleaved with direct jumps and calls, returns and
// indirect branches, so direction tables and global, path and local
// histories all move. It is a fixed function of this code.
func probeColumns() *trace.Columns {
	c := trace.NewColumns("cond-salt-probe", probeRecords)
	x := uint64(0x9E3779B97F4A7C15)
	last := false
	for i := 0; i < probeRecords; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		site := x % 64
		pc := 0x400000 + site*0x40
		r := trace.Record{PC: pc, InstrBefore: uint32(x>>8) % 9, Taken: true}
		switch k := (x >> 16) % 16; k {
		case 0:
			r.Type, r.Target = trace.UncondDirect, pc+0x100
		case 1:
			r.Type, r.Target = trace.DirectCall, 0x500000+(x>>24)%8*0x100
		case 2:
			r.Type, r.Target = trace.Return, pc+4
		case 3:
			r.Type, r.Target = trace.IndirectJump, 0x600000+(x>>24)%4*0x40
		default:
			taken := (i/int(site+1))%2 == 0
			switch site % 4 {
			case 1:
				taken = taken != last
			case 2:
				taken = (x>>32)%8 != 0
			}
			r.Type, r.Taken = trace.CondDirect, taken
			r.Target = pc + 0x20
			if !taken {
				r.Target = pc + 4
			}
			last = taken
		}
		c.Append(r)
	}
	return c
}

// RegisterCond records the constructor of the configuration key names.
// Tape.Run takes a built predictor, but a tape with a CondStore needs a
// second fresh instance of the configuration for its code salt; Run looks
// it up here. A key without a registered constructor is simulated as
// usual under Run, but never served from or recorded in a store.
// RunShared takes the constructor directly and needs no registration.
func RegisterCond(key string, newCond func() cond.Predictor) {
	condCtors.Store(key, newCond)
}

func registeredCond(key string) func() cond.Predictor {
	if f, ok := condCtors.Load(key); ok {
		return f.(func() cond.Predictor)
	}
	return nil
}
