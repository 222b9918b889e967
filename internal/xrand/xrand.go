// Package xrand provides the deterministic pseudo-random number streams the
// graph generator and samplers rely on. Two generators are implemented from
// their published references: SplitMix64 (used to seed and to scramble vertex
// IDs) and xoshiro256** (the workhorse stream). Both are allocation-free.
// R-MAT generation seeds one xoshiro256** stream per edge block from Mix64 of
// the seed and the block index, which lets it split across goroutines while
// staying bit-reproducible.
package xrand

import "math/bits"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// Its zero value is a valid stream seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 stream with the given seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality 64-bit
// mixing function used to scramble vertex identifiers so that the contiguous
// block distribution of vertices does not correlate with R-MAT locality
// (the Graph 500 reference code scrambles IDs for the same reason).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator seeded from seed via SplitMix64, as the
// authors recommend.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// An all-zero state would be absorbing; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 1
	}
	return &x
}

// Next returns the next value in the stream.
func (x *Xoshiro256) Next() uint64 {
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n). It uses Lemire's multiply-shift
// rejection method and panics if n is zero.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	hi, lo := bits.Mul64(x.Next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Next(), n)
		}
	}
	return hi
}
