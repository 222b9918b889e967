package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the canonical C implementation.
	s := NewSplitMix64(1234567)
	got := []uint64{s.Next(), s.Next(), s.Next()}
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SplitMix64[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMix64MatchesStream(t *testing.T) {
	// Mix64(seed advanced once) must equal the first Next() of a stream with
	// the same seed, since SplitMix64 is exactly the finalizer over a Weyl
	// sequence.
	for seed := uint64(0); seed < 100; seed++ {
		s := NewSplitMix64(seed)
		if got, want := s.Next(), Mix64(seed); got != want {
			t.Fatalf("seed %d: stream %d != Mix64 %d", seed, got, want)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := NewXoshiro256(42), NewXoshiro256(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewXoshiro256(43)
	same := 0
	a = NewXoshiro256(42)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g far from 0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(9)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 32, 1<<63 + 3} {
		for i := 0; i < 1000; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	x := NewXoshiro256(11)
	const buckets = 8
	var counts [buckets]int
	const n = 80000
	for i := 0; i < n; i++ {
		counts[x.Uint64n(buckets)]++
	}
	for b, c := range counts {
		expected := float64(n) / buckets
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("bucket %d count %d deviates from %g", b, c, expected)
		}
	}
}

func TestPropertyMix64Injective(t *testing.T) {
	// Mix64 is a bijection on 64-bit values; distinct inputs in a small
	// random sample must map to distinct outputs.
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Next()
	}
	_ = sink
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Mix64(uint64(i))
	}
	_ = sink
}
