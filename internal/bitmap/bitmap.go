// Package bitmap provides the dense bit vectors used throughout the BFS
// engine: single-owner frontier and visited bitmaps, and the bit planes of
// the batched multi-source engine, which view one shared backing as Q
// per-query bitmaps.
package bitmap

import (
	"fmt"
	"math/bits"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// Bitmap is a dense bit vector. The zero value is an empty bitmap of length
// zero; use New to allocate one of a given length.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a cleared bitmap capable of holding n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative length %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+wordMask)>>wordShift), n: n}
}

// FromWords wraps an existing word slice as a bitmap of n bits.
// The slice must contain at least (n+63)/64 words.
func FromWords(words []uint64, n int) *Bitmap {
	if need := (n + wordMask) >> wordShift; len(words) < need {
		panic(fmt.Sprintf("bitmap: %d words cannot hold %d bits", len(words), n))
	}
	return &Bitmap{words: words, n: n}
}

// Len returns the number of bits the bitmap holds.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words. The final word's spare bits are always
// zero as long as callers stay within Len.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i>>wordShift] |= 1 << (uint(i) & wordMask)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.words[i>>wordShift] &^= 1 << (uint(i) & wordMask)
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	return b.words[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// TestAndSet sets bit i and reports whether it was previously clear
// (i.e. whether this call changed it).
func (b *Bitmap) TestAndSet(i int) bool {
	w := i >> wordShift
	m := uint64(1) << (uint(i) & wordMask)
	old := b.words[w]
	b.words[w] = old | m
	return old&m == 0
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill sets every bit in [0, Len).
func (b *Bitmap) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the spare bits of the last word so Count stays exact.
func (b *Bitmap) trim() {
	if r := uint(b.n) & wordMask; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets b to b|other. The bitmaps must have identical lengths.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: Or length mismatch %d vs %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// AndNot sets b to b&^other (bits in b that are not in other).
func (b *Bitmap) AndNot(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: AndNot length mismatch %d vs %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// CopyFrom overwrites b with other's bits. Lengths must match.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: CopyFrom length mismatch %d vs %d", b.n, other.n))
	}
	copy(b.words, other.words)
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << wordShift
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit >= from, or -1 if none.
func (b *Bitmap) NextSet(from int) int {
	if from >= b.n {
		return -1
	}
	if from < 0 {
		from = 0
	}
	wi := from >> wordShift
	w := b.words[wi] >> (uint(from) & wordMask)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<wordShift + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitmap) CountRange(lo, hi int) int {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: CountRange [%d,%d) out of [0,%d)", lo, hi, b.n))
	}
	c := 0
	for i := lo; i < hi; {
		wi := i >> wordShift
		w := b.words[wi]
		// Mask off bits below i.
		w >>= uint(i) & wordMask
		span := wordBits - int(uint(i)&wordMask)
		if rem := hi - i; rem < span {
			w &= (1 << uint(rem)) - 1
			span = rem
		}
		c += bits.OnesCount64(w)
		i += span
	}
	return c
}

// String renders the bitmap as 0/1 characters, LSB first, for debugging.
func (b *Bitmap) String() string {
	buf := make([]byte, b.n)
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
