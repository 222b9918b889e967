package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if got := b.Test(i); got != want {
			t.Fatalf("Test(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 200; i += 6 {
		b.Clear(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0 && i%6 != 0
		if got := b.Test(i); got != want {
			t.Fatalf("after Clear, Test(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestCountAndAny(t *testing.T) {
	b := New(130)
	if b.Any() {
		t.Fatal("empty bitmap reports Any")
	}
	if b.Count() != 0 {
		t.Fatalf("empty Count = %d", b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if got := b.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if !b.Any() {
		t.Fatal("Any = false with 3 bits set")
	}
}

func TestFillRespectsLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := New(n)
		b.Fill()
		if got := b.Count(); got != n {
			t.Errorf("Fill: n=%d Count=%d", n, got)
		}
	}
}

func TestTestAndSet(t *testing.T) {
	b := New(10)
	if !b.TestAndSet(5) {
		t.Fatal("first TestAndSet should report change")
	}
	if b.TestAndSet(5) {
		t.Fatal("second TestAndSet should not report change")
	}
	if !b.Test(5) {
		t.Fatal("bit not set")
	}
}

func TestOrAndNot(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{1, 50, 99} {
		if !a.Test(i) {
			t.Fatalf("Or: bit %d missing", i)
		}
	}
	a.AndNot(b)
	if !a.Test(1) || a.Test(50) || a.Test(99) {
		t.Fatalf("AndNot wrong: %v %v %v", a.Test(1), a.Test(50), a.Test(99))
	}
}

func TestForEachOrder(t *testing.T) {
	b := New(300)
	want := []int{0, 7, 64, 128, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ForEach[%d] = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestNextSet(t *testing.T) {
	b := New(300)
	b.Set(5)
	b.Set(100)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 100}, {100, 100}, {101, -1}, {299, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestCountRange(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 2 {
		b.Set(i)
	}
	cases := []struct{ lo, hi, want int }{
		{0, 256, 128}, {0, 0, 0}, {1, 2, 0}, {0, 1, 1}, {63, 65, 1}, {10, 74, 32},
	}
	for _, c := range cases {
		if got := b.CountRange(c.lo, c.hi); got != c.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestCountRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(517)
	for i := 0; i < b.Len(); i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(b.Len() + 1)
		hi := lo + rng.Intn(b.Len()+1-lo)
		want := 0
		for i := lo; i < hi; i++ {
			if b.Test(i) {
				want++
			}
		}
		if got := b.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(3)
	c := a.Clone()
	c.Set(10)
	if a.Test(10) {
		t.Fatal("Clone shares storage")
	}
	if !c.Test(3) {
		t.Fatal("Clone lost bit")
	}
}

func TestPropertySetRoundTrip(t *testing.T) {
	f := func(idx []uint16) bool {
		b := New(1 << 16)
		seen := map[int]bool{}
		for _, i := range idx {
			b.Set(int(i))
			seen[int(i)] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths should panic")
		}
	}()
	New(10).Or(New(11))
}

func BenchmarkSet(b *testing.B) {
	bm := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

func BenchmarkCount(b *testing.B) {
	bm := New(1 << 20)
	bm.Fill()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bm.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}

func TestResetAndCopyFrom(t *testing.T) {
	a := New(100)
	a.Set(5)
	a.Set(99)
	b := New(100)
	b.CopyFrom(a)
	if !b.Test(5) || !b.Test(99) || b.Count() != 2 {
		t.Fatal("CopyFrom lost bits")
	}
	a.Reset()
	if a.Any() {
		t.Fatal("Reset left bits")
	}
	if !b.Test(5) {
		t.Fatal("Reset affected the copy")
	}
}

func TestFromWords(t *testing.T) {
	words := []uint64{0b101, 0}
	b := FromWords(words, 70)
	if !b.Test(0) || b.Test(1) || !b.Test(2) {
		t.Fatal("FromWords bits wrong")
	}
	if b.Len() != 70 {
		t.Fatalf("Len = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short word slice accepted")
		}
	}()
	FromWords(words, 1000)
}

func TestString(t *testing.T) {
	b := New(5)
	b.Set(0)
	b.Set(3)
	if got := b.String(); got != "10010" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative length accepted")
		}
	}()
	New(-1)
}

func TestAndNotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	New(10).AndNot(New(11))
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	New(10).CopyFrom(New(11))
}

func TestNextSetNegativeFrom(t *testing.T) {
	b := New(10)
	b.Set(3)
	if got := b.NextSet(-5); got != 3 {
		t.Fatalf("NextSet(-5) = %d", got)
	}
}

func TestCountRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range accepted")
		}
	}()
	New(10).CountRange(5, 2)
}
