// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every node in a simulated network owns an independent stream derived from
// a single run seed, so runs are reproducible bit-for-bit and the
// full-information adversary can replay any honest node's future coin flips
// by cloning its stream (the paper's adversary knows "the random choices
// made by the nodes up to and including the current round as well as future
// rounds").
//
// The generator is xoshiro256**, seeded through SplitMix64. Both are public
// domain algorithms (Blackman & Vigna); they are small, fast, and pass
// BigCrush, which is more than sufficient for protocol simulation.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic random stream. The zero value is not usable;
// construct with New or Split.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, so xoshiro streams with related seeds are
// decorrelated.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed reseeds src in place, producing the same stream as New(seed)
// without allocating. Arena-style callers (internal/core's per-node color
// streams) reseed a flat []Source between runs instead of reallocating n
// pointers per run.
func (src *Source) Seed(seed uint64) {
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 outputs are
	// never all zero for four consecutive draws, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
}

// Split derives an independent stream for the given subStream index.
// Streams with different (seed, subStream) pairs are decorrelated because
// the combined value passes through SplitMix64 twice before seeding.
func Split(seed uint64, subStream uint64) *Source {
	var src Source
	src.SeedSplit(seed, subStream)
	return &src
}

// SeedSplit reseeds src in place, producing the same stream as
// Split(seed, subStream) without allocating.
func (src *Source) SeedSplit(seed uint64, subStream uint64) {
	sm := seed
	a := splitmix64(&sm)
	sm = a ^ (subStream * 0x9e3779b97f4a7c15)
	src.Seed(splitmix64(&sm))
}

// Clone returns a copy of the stream that will produce the same future
// outputs as src. This is the adversary's window into honest nodes' coins.
func (src *Source) Clone() *Source {
	dup := *src
	return &dup
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (src *Source) Uint64() uint64 {
	result := rotl(src.s[1]*5, 7) * 9
	t := src.s[1] << 17
	src.s[2] ^= src.s[0]
	src.s[3] ^= src.s[1]
	src.s[1] ^= src.s[2]
	src.s[0] ^= src.s[3]
	src.s[2] ^= t
	src.s[3] = rotl(src.s[3], 45)
	return result
}

// Int63 returns a non-negative random int64.
func (src *Source) Int63() int64 {
	return int64(src.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := src.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = src.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (src *Source) Bool() bool {
	return src.Uint64()&1 == 1
}

// Geometric returns the number of fair-coin flips up to and including the
// first head: a Geometric(1/2) variate with support {1, 2, 3, ...}.
// This is the paper's "color" distribution (Algorithm 1, line 10).
//
// Implemented by counting the trailing zeros of a 64-bit word — each
// zero is a tail before the first head — refilling for the (once in
// 2^64) event that the word is all tails.
func (src *Source) Geometric() int {
	flips := 1
	w := src.Uint64()
	for w == 0 {
		flips += 64
		w = src.Uint64()
	}
	return flips + bits.TrailingZeros64(w)
}

// GeometricP returns a Geometric(p) variate with support {1, 2, ...}:
// the number of Bernoulli(p) trials until the first success.
// It panics unless 0 < p <= 1.
func (src *Source) GeometricP(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: GeometricP needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
}

// Exp returns an Exponential(1) variate (mean 1), used by the support
// estimation baseline.
func (src *Source) Exp() float64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return -math.Log(u)
}

// Perm returns a uniformly random permutation of [0, n).
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	src.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place (Fisher–Yates).
func (src *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns m distinct integers drawn uniformly from [0, n) in
// selection order (partial Fisher–Yates). It panics if m > n or m < 0.
func (src *Source) Sample(n, m int) []int {
	if m < 0 || m > n {
		panic("rng: Sample needs 0 <= m <= n")
	}
	// For small m relative to n use a map-based virtual shuffle to avoid
	// allocating the full permutation.
	if m*8 < n {
		chosen := make(map[int]int, m)
		out := make([]int, m)
		for i := 0; i < m; i++ {
			j := i + src.Intn(n-i)
			vj, ok := chosen[j]
			if !ok {
				vj = j
			}
			vi, ok := chosen[i]
			if !ok {
				vi = i
			}
			out[i] = vj
			chosen[j] = vi
		}
		return out
	}
	p := src.Perm(n)
	return p[:m]
}
