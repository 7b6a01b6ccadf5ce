// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a core requirement of the experiment harness: every
// execution of a (user, server, world) system must be replayable from a
// single 64-bit seed. The standard library's math/rand is seedable but not
// conveniently splittable into independent per-party streams; xrand is.
//
// The generator is xoshiro256** seeded via splitmix64, following the public
// domain reference designs by Blackman and Vigna. It is not cryptographically
// secure and must not be used for security purposes.
package xrand

import "math/bits"

// Rand is a deterministic pseudo-random number generator.
//
// The zero value is not ready for use; construct instances with New or
// derive them with Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed. Two generators
// constructed from the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed re-seeds r in place from the given 64-bit seed: afterwards r
// produces exactly the stream New(seed) would. It exists so hot loops
// can reuse one generator allocation across logical re-seedings.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 bits of the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives a new generator whose future stream is independent of the
// parent's (in the statistical, not cryptographic, sense). The parent
// advances by two outputs; the child is seeded from them.
func (r *Rand) Split() *Rand {
	child := &Rand{}
	r.SplitInto(child)
	return child
}

// SplitInto re-seeds child from r exactly as Split would seed the
// generator it returns: the parent advances by the same two outputs and
// the child ends in the same state, so substituting SplitInto for Split
// (reusing one child allocation) never changes any stream.
func (r *Rand) SplitInto(child *Rand) {
	a, b := r.Uint64(), r.Uint64()
	child.Reseed(a ^ bits.RotateLeft64(b, 32))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// the contract of math/rand.Intn; callers must validate n.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
