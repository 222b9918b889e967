package psort

import (
	"math/rand"
	"sort"
	"testing"
)

func radixRef(keys []uint64) []uint64 {
	ref := append([]uint64(nil), keys...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	return ref
}

func TestRadixSortUint64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func(n int) []uint64{
		"dense": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Intn(1000))
			}
			return out
		},
		"full-width": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = rng.Uint64()
			}
			return out
		},
		"high-bit-skewed": func(n int) []uint64 {
			// Only the top byte varies: the low seven digit histograms all
			// collapse to one bucket and must be skipped, the top one must
			// still order correctly.
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Intn(256)) << 56
			}
			return out
		},
		"duplicates": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i % 3)
			}
			return out
		},
		"already-sorted": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i)
			}
			return out
		},
		"reverse-sorted": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(n - i)
			}
			return out
		},
		"all-equal": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 42
			}
			return out
		},
	}
	for name, gen := range dists {
		for _, n := range []int{0, 1, 2, 4095, 4096, 30000} {
			for _, workers := range []int{1, 2, 7} {
				keys := gen(n)
				want := radixRef(keys)
				RadixSortUint64(keys, workers)
				for i := range keys {
					if keys[i] != want[i] {
						t.Fatalf("%s n=%d workers=%d: mismatch at %d: got %d want %d",
							name, n, workers, i, keys[i], want[i])
					}
				}
			}
		}
	}
}

func TestRadixActiveDigitsSkipsConstant(t *testing.T) {
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i%512) << 16 // digits 2 and 3 vary, all others constant
	}
	active := radixActiveDigits(keys, 4)
	if len(active) != 2 || active[0] != 2 || active[1] != 3 {
		t.Fatalf("active digits = %v, want [2 3]", active)
	}
}

func BenchmarkRadixSortUint64Dense1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]uint64, 1<<20)
	for i := range base {
		base[i] = uint64(rng.Intn(1 << 20))
	}
	keys := make([]uint64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		RadixSortUint64(keys, 0)
	}
}
