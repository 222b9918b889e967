package sunway

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

func bucketsEqual(t *testing.T, a, b [][]uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("bucket count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x := append([]uint64(nil), a[i]...)
		y := append([]uint64(nil), b[i]...)
		sort.Slice(x, func(p, q int) bool { return x[p] < x[q] })
		sort.Slice(y, func(p, q int) bool { return y[p] < y[q] })
		if len(x) != len(y) {
			t.Fatalf("bucket %d size %d vs %d", i, len(x), len(y))
		}
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("bucket %d differs at %d", i, j)
			}
		}
	}
}

func TestBucketMPE(t *testing.T) {
	items := []uint64{0, 1, 2, 255, 256, 257}
	out := BucketMPE(items, 256, func(x uint64) int { return int(x & 0xFF) })
	if len(out[0]) != 2 || out[0][0] != 0 || out[0][1] != 256 {
		t.Fatalf("bucket 0 = %v", out[0])
	}
	if len(out[1]) != 2 || len(out[255]) != 1 {
		t.Fatal("bucket sizes wrong")
	}
}

func TestBucketOCSMatchesMPE(t *testing.T) {
	keys := randomKeys(200000, 1)
	f := func(x uint64) int { return int(x & 0xFF) }
	ref := BucketMPE(keys, 256, f)
	for _, cgs := range []int{1, 6} {
		got := BucketOCS(keys, 256, f, OCSConfig{CGs: cgs})
		bucketsEqual(t, ref, got)
	}
}

func TestBucketOCSEmptyAndTiny(t *testing.T) {
	out := BucketOCS(nil, 8, func(x uint64) int { return int(x % 8) }, OCSConfig{})
	if len(out) != 8 {
		t.Fatalf("want 8 empty buckets, got %d", len(out))
	}
	out = BucketOCS([]uint64{5}, 8, func(x uint64) int { return int(x % 8) }, OCSConfig{CGs: 6})
	if len(out[5]) != 1 || out[5][0] != 5 {
		t.Fatal("single item misplaced")
	}
}

func TestBucketOCSCounters(t *testing.T) {
	keys := randomKeys(100000, 2)
	c := &Counters{}
	BucketOCS(keys, 256, func(x uint64) int { return int(x & 0xFF) }, OCSConfig{CGs: 1, Counters: c})
	s := c.Snapshot()
	if s.RMAPuts == 0 || s.RMABytes == 0 {
		t.Fatal("no RMA traffic recorded")
	}
	if s.RMABytes < int64(len(keys)*8) {
		t.Fatalf("RMA bytes %d below payload %d", s.RMABytes, len(keys)*8)
	}
	if s.AtomicOps != 0 {
		t.Fatalf("single-CG run used %d atomics; OCS-RMA eliminates them", s.AtomicOps)
	}
	c6 := &Counters{}
	BucketOCS(keys, 256, func(x uint64) int { return int(x & 0xFF) }, OCSConfig{CGs: 6, Counters: c6})
	if c6.Snapshot().AtomicOps == 0 {
		t.Fatal("6-CG run should record cross-CG atomics")
	}
}

func TestBucketOCSProperty(t *testing.T) {
	f := func(raw []uint16, bRaw uint8) bool {
		buckets := int(bRaw%32) + 1
		items := make([]uint64, len(raw))
		for i, r := range raw {
			items[i] = uint64(r)
		}
		fn := func(x uint64) int { return int(x % uint64(buckets)) }
		out := BucketOCS(items, buckets, fn, OCSConfig{CGs: 2})
		total := 0
		for b, recs := range out {
			total += len(recs)
			for _, r := range recs {
				if fn(r) != b {
					return false
				}
			}
		}
		return total == len(items)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArchConstants(t *testing.T) {
	if CGsPerChip != 6 || CPEsPerCG != 64 || LDMBytes != 256<<10 {
		t.Fatal("SW26010-Pro constants drifted from the paper")
	}
	if Producers+Consumers != CPEsPerCG {
		t.Fatal("OCS roles must cover all CPEs in a CG")
	}
}

// Benchmarks below regenerate the Figure 14 contrast at reduced input size;
// bench_test.go at the repo root runs the full comparison.

func benchKeys(b *testing.B, n int) []uint64 {
	b.Helper()
	return randomKeys(n, 42)
}

func BenchmarkBucketMPE(b *testing.B) {
	keys := benchKeys(b, 1<<20)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BucketMPE(keys, 256, f)
	}
}

func BenchmarkBucketOCS1CG(b *testing.B) {
	keys := benchKeys(b, 1<<20)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BucketOCS(keys, 256, f, OCSConfig{CGs: 1})
	}
}

func BenchmarkBucketOCS6CG(b *testing.B) {
	keys := benchKeys(b, 1<<20)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BucketOCS(keys, 256, f, OCSConfig{CGs: 6})
	}
}
