package tracecache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"blbp/internal/snapshot"
	"blbp/internal/workload"
)

// CondIndexFile is the name of the conditional-count index a spill
// directory holds next to its trace files: one file per directory.
const CondIndexFile = "condcounts.idx"

// condIndexMagic opens every index file.
var condIndexMagic = [8]byte{'B', 'L', 'B', 'P', 'C', 'N', 'D', '1'}

// maxCondIndexBytes bounds what is read of an index: the file holds a few
// hundred bytes per count, so anything larger is not one.
const maxCondIndexBytes = 64 << 20

// CondCount is one persisted conditional-side count: the misprediction
// count of the conditional configuration Key (sim.CondKey) over the trace
// of Workload, valid while the code salt (sim.CondSalt) is Salt.
type CondCount struct {
	Workload    workload.Identity
	Key         string
	Salt        uint64
	Mispredicts int64
}

// condRef is a count's lookup key; the salt is checked on lookup so a
// stale entry reads as a reject rather than as absent.
type condRef struct {
	id  workload.Identity
	key string
}

type condValue struct {
	salt        uint64
	mispredicts int64
}

// condIndex holds the spill directory's persisted counts (loaded on the
// first lookup) and the counts this process simulated (written at Close).
type condIndex struct {
	path    string
	load    sync.Once
	mu      sync.Mutex
	disk    map[condRef]condValue
	pending map[condRef]condValue
}

// entryConds is one entry's view of the cache's count index: the
// sim.CondStore its tape consults before simulating a conditional side.
type entryConds struct {
	c         *Cache
	id        workload.Identity
	fromSpill bool
}

// LoadCond serves a count the index holds for this trace and key. A count
// from disk is served only to a trace decoded from a spill file, and only
// under the current code salt: a trace rebuilt by the generator may differ
// from the one the count was taken on, and a salt mismatch means the
// predictor's code changed since.
func (s entryConds) LoadCond(key string, salt func() (uint64, bool)) (int64, bool) {
	c := s.c
	if c.conds == nil {
		return 0, false
	}
	ix := c.condIndex()
	ref := condRef{id: s.id, key: key}
	ix.mu.Lock()
	p, pending := ix.pending[ref]
	d, onDisk := ix.disk[ref]
	ix.mu.Unlock()
	if pending {
		c.condLoads.Add(1)
		return p.mispredicts, true
	}
	if onDisk && s.fromSpill {
		if v, ok := salt(); ok {
			if v == d.salt {
				c.condLoads.Add(1)
				return d.mispredicts, true
			}
			c.condRejects.Add(1)
		}
	}
	c.condMisses.Add(1)
	return 0, false
}

// SaveCond records a count the tape simulated, for Close to persist.
func (s entryConds) SaveCond(key string, salt func() (uint64, bool), mispredicts int64) {
	c := s.c
	c.condSims.Add(1)
	if c.conds == nil {
		return
	}
	v, ok := salt()
	if !ok {
		return
	}
	ix := c.condIndex()
	ix.mu.Lock()
	ix.pending[condRef{id: s.id, key: key}] = condValue{salt: v, mispredicts: mispredicts}
	ix.mu.Unlock()
}

// condIndex returns the cache's count index, reading the directory's file
// on first use. A damaged file counts one reject and reads as empty.
func (c *Cache) condIndex() *condIndex {
	ix := c.conds
	ix.load.Do(func() {
		counts, err := ReadCondCounts(filepath.Dir(ix.path))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			c.condRejects.Add(1)
		}
		ix.disk = make(map[condRef]condValue, len(counts))
		for _, cc := range counts {
			ix.disk[condRef{id: cc.Workload, key: cc.Key}] = condValue{salt: cc.Salt, mispredicts: cc.Mispredicts}
		}
	})
	return ix
}

// flushConds writes the counts simulated by this process into the
// directory's index, over whatever valid counts the file holds now (another
// process may have added some since this one read it). It writes nothing
// when nothing new was simulated. The write is atomic: temp file, fsync,
// rename.
func (c *Cache) flushConds() {
	ix := c.conds
	ix.mu.Lock()
	pending := ix.pending
	ix.pending = map[condRef]condValue{}
	ix.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	merged := map[condRef]condValue{}
	if counts, err := ReadCondCounts(filepath.Dir(ix.path)); err == nil {
		for _, cc := range counts {
			merged[condRef{id: cc.Workload, key: cc.Key}] = condValue{salt: cc.Salt, mispredicts: cc.Mispredicts}
		}
	}
	for ref, v := range pending {
		merged[ref] = v
	}
	out := make([]CondCount, 0, len(merged))
	for ref, v := range merged {
		out = append(out, CondCount{Workload: ref.id, Key: ref.key, Salt: v.salt, Mispredicts: v.mispredicts})
	}
	err := snapshot.WriteFileAtomic(ix.path, tempPattern, func(w io.Writer) error {
		_, err := w.Write(encodeCondCounts(out))
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecache: writing %s: %v (the counts are recomputed next run)\n", ix.path, err)
		return
	}
	c.condWrites.Add(int64(len(pending)))
}

// ReadCondCounts reads the conditional-count index of a spill directory.
// A missing file is an error wrapping os.ErrNotExist; a truncated or
// damaged one (the trailing checksum covers every byte) is an error too.
func ReadCondCounts(dir string) ([]CondCount, error) {
	f, err := os.Open(filepath.Join(dir, CondIndexFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxCondIndexBytes+1))
	if err != nil {
		return nil, err
	}
	return decodeCondCounts(data)
}

// encodeCondCounts renders counts in a canonical order: the magic, the
// counts as JSON, then an FNV-1a checksum of everything before it.
func encodeCondCounts(counts []CondCount) []byte {
	sort.Slice(counts, func(i, j int) bool {
		a, b := counts[i], counts[j]
		switch {
		case a.Workload.Name != b.Workload.Name:
			return a.Workload.Name < b.Workload.Name
		case a.Workload.Seed != b.Workload.Seed:
			return a.Workload.Seed < b.Workload.Seed
		case a.Workload.Instructions != b.Workload.Instructions:
			return a.Workload.Instructions < b.Workload.Instructions
		case a.Workload.Fingerprint != b.Workload.Fingerprint:
			return a.Workload.Fingerprint < b.Workload.Fingerprint
		}
		return a.Key < b.Key
	})
	body, err := json.Marshal(counts)
	if err != nil {
		panic(fmt.Sprintf("tracecache: conditional counts do not marshal: %v", err))
	}
	b := append(condIndexMagic[:len(condIndexMagic):len(condIndexMagic)], body...)
	return binary.LittleEndian.AppendUint64(b, fnvSum(b))
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// errCondIndex reports a damaged index.
var errCondIndex = errors.New("tracecache: damaged conditional-count index")

func decodeCondCounts(data []byte) ([]CondCount, error) {
	const trailer = 8
	if len(data) > maxCondIndexBytes || len(data) < len(condIndexMagic)+trailer ||
		!bytes.Equal(data[:len(condIndexMagic)], condIndexMagic[:]) {
		return nil, errCondIndex
	}
	body := data[:len(data)-trailer]
	if fnvSum(body) != binary.LittleEndian.Uint64(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCondIndex)
	}
	var counts []CondCount
	if err := json.Unmarshal(body[len(condIndexMagic):], &counts); err != nil {
		return nil, fmt.Errorf("%w: %v", errCondIndex, err)
	}
	for _, cc := range counts {
		if cc.Mispredicts < 0 {
			return nil, fmt.Errorf("%w: negative count", errCondIndex)
		}
	}
	return counts, nil
}
