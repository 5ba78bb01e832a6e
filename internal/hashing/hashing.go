// Package hashing provides the small deterministic mixing functions used to
// index predictor tables. Hardware predictors use cheap XOR/shift index
// functions; we use a slightly stronger multiplicative mix so that synthetic
// workload address layouts do not accidentally alias in ways real address
// streams would not.
package hashing

// Mix64 is a finalization-style 64-bit mixer (the splitmix64 finalizer).
// It is bijective, so distinct inputs never collide before truncation.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Combine mixes two 64-bit values into one.
func Combine(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b+0x9e3779b97f4a7c15))
}

// Index reduces a hash to a table index in [0, size). size must be > 0.
// Power-of-two sizes keep the low bits of h (a mask). Other sizes re-mix h
// with Mix64 and take the remainder modulo size; the re-mix spreads inputs
// whose low bits are structured, and the modulo bias, below size/2^64, is
// negligible.
func Index(h uint64, size int) int {
	if size <= 0 {
		panic("hashing: Index with non-positive size")
	}
	u := uint64(size)
	if u&(u-1) == 0 {
		return int(h & (u - 1))
	}
	return int(Mix64(h) % u)
}

// Tag extracts a partial tag of the given bit width from a hash, avoiding
// the low bits that Index consumes.
func Tag(h uint64, bits int) uint64 {
	if bits <= 0 {
		return 0
	}
	if bits >= 64 {
		return h
	}
	return (h >> 24) & ((1 << uint(bits)) - 1)
}
