package history

import (
	"bytes"
	"math/rand"
	"testing"

	"blbp/internal/hashing"
	"blbp/internal/snapshot"
)

// refHash is the reference path hash: the per-depth loop over the window,
// newest element first, that Hashes' shared and memoised chain must match.
func refHash(p *Path, upTo int) uint64 {
	if upTo > p.depth {
		upTo = p.depth
	}
	var h uint64
	for i := 0; i < upTo; i++ {
		h = hashing.Combine(h, uint64(p.elem(i))+uint64(i)<<16)
	}
	return h
}

// hashAt registers depth on p and returns its current hash.
func hashAt(p *Path, depth int) uint64 {
	i := p.Register(depth)
	return p.Hashes()[i]
}

func TestPathHashChangesWithPushes(t *testing.T) {
	p := NewPath(16)
	p.Push(0x1000)
	h1 := hashAt(p, 16)
	p.Push(0x2000)
	h2 := hashAt(p, 16)
	if h1 == h2 {
		t.Error("path hash unchanged after push")
	}
}

func TestPathOrderSensitive(t *testing.T) {
	a := NewPath(8)
	b := NewPath(8)
	a.Push(0x1000)
	a.Push(0x2000)
	b.Push(0x2000)
	b.Push(0x1000)
	if hashAt(a, 8) == hashAt(b, 8) {
		t.Error("path hash is order-insensitive")
	}
}

func TestPathHashClampsDepth(t *testing.T) {
	p := NewPath(4)
	for i := 0; i < 10; i++ {
		p.Push(uint64(i) << 4)
	}
	if p.Register(100) != p.Register(4) {
		t.Error("Register(depth > path depth) did not clamp to the path depth")
	}
	if hashAt(p, 100) != refHash(p, 4) {
		t.Error("Hash(upTo > depth) != Hash(depth)")
	}
}

func TestPathPrefixDiffers(t *testing.T) {
	p := NewPath(8)
	for i := 0; i < 8; i++ {
		p.Push(uint64(0x400000 + i*64))
	}
	if hashAt(p, 2) == hashAt(p, 6) {
		t.Error("different path depths produced identical hashes")
	}
}

func TestPathResetAndDepth(t *testing.T) {
	p := NewPath(8)
	if p.Depth() != 8 {
		t.Errorf("Depth = %d, want 8", p.Depth())
	}
	p.Push(0x1234)
	if hashAt(p, 8) == refHash(NewPath(8), 8) {
		t.Error("push did not move the hash off the pristine value")
	}
	p.Reset()
	empty := NewPath(8)
	if hashAt(p, 8) != hashAt(empty, 8) {
		t.Error("Reset did not restore pristine hash")
	}
}

func TestPathConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPath(0) did not panic")
		}
	}()
	NewPath(0)
}

// TestPathHashesMatchReference drives paths of several depths (word-aligned
// and not) through random pushes, resets and state round trips, checking
// every registered depth against the reference loop after each step.
func TestPathHashesMatchReference(t *testing.T) {
	for _, depth := range []int{1, 3, 4, 7, 8, 16, 21} {
		rng := rand.New(rand.NewSource(int64(depth)))
		p := NewPath(depth)
		var depths []int
		for _, d := range []int{depth, 1, (depth + 1) / 2} {
			if p.Register(d) == len(depths) {
				depths = append(depths, d)
			}
		}
		// A small PC pool makes windows repeat, so the memo serves hits.
		pool := make([]uint64, 5)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r == 0:
				p.Reset()
			case r == 1:
				pathRoundTrip(t, p)
			case r < 40:
				p.Push(rng.Uint64())
			default:
				p.Push(pool[rng.Intn(len(pool))])
			}
			hs := p.Hashes()
			for k, d := range depths {
				if want := refHash(p, d); hs[k] != want {
					t.Fatalf("depth %d step %d: Hashes()[%d] (depth %d) = %#x, want %#x", depth, step, k, d, hs[k], want)
				}
			}
		}
	}
}

// pathRoundTrip restores p from its own encoded state.
func pathRoundTrip(t *testing.T, p *Path) {
	t.Helper()
	c := snapshot.NewContainer("path", 0)
	p.EncodeState(c.Section("p"))
	var b bytes.Buffer
	if err := c.EncodeTo(&b); err != nil {
		t.Fatal(err)
	}
	dc, err := snapshot.ReadContainer(&b, "path", 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dc.Section("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreState(d); err != nil {
		t.Fatal(err)
	}
}

// TestPathMemoCollision forces two different windows into one memo slot
// and checks that each still gets its own hash: the full-key compare turns
// a slot collision into a recompute, never a stale hash. The windows share
// their newest four elements (the first key word), so a compare that
// stops short of the whole key fails too.
func TestPathMemoCollision(t *testing.T) {
	p := NewPath(16)
	p.Register(8)
	p.Register(16)
	rng := rand.New(rand.NewSource(7))
	push := func(q *Path, pcs []uint64) {
		for _, pc := range pcs {
			q.Push(pc)
		}
	}
	window := func() []uint64 {
		pcs := make([]uint64, 16)
		for i := range pcs {
			pcs[i] = rng.Uint64()
		}
		return pcs
	}
	a := window()
	push(p, a)
	slot := p.memoSlot()
	var b []uint64
	for tries := 0; b == nil; tries++ {
		if tries > 1<<20 {
			t.Fatal("no colliding window found")
		}
		c := window()
		copy(c[12:], a[12:]) // pushed last: the newest four elements
		push(p, c)
		if p.memoSlot() == slot {
			b = c
		}
	}
	for round := 0; round < 3; round++ {
		for _, pcs := range [][]uint64{a, b} {
			push(p, pcs)
			if p.memoSlot() != slot {
				t.Fatal("window moved to another memo slot")
			}
			hs := p.Hashes()
			if hs[0] != refHash(p, 8) || hs[1] != refHash(p, 16) {
				t.Fatalf("round %d: colliding window got hashes %#x, want %#x %#x", round, hs, refHash(p, 8), refHash(p, 16))
			}
		}
	}
	var pa, pb [2]uint64
	push(p, a)
	copy(pa[:], p.Hashes())
	push(p, b)
	copy(pb[:], p.Hashes())
	if pa == pb {
		t.Error("two different windows share one hash pair")
	}
}
