package psort

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzRadixSortMatchesSort pins the raw radix kernel bit-equal to the stdlib
// comparison sort on arbitrary key sets — no profitability gate, every digit
// plan the fuzzer can produce (dense, full-width, high-bit-skewed) runs
// through histogram + prefix-sum + scatter. The amplified pass stresses the
// parallel scatter's per-chunk cursors past one chunk per worker.
func FuzzRadixSortMatchesSort(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(3))
	// High-bit-skewed: only the top byte varies, so seven histograms
	// collapse to a single bucket and must be skipped.
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff"), uint8(4))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00"), uint8(2))
	f.Add([]byte("radix beats compare here"), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		w := int(workers)%8 + 1

		check := func(orig []uint64, path string) {
			t.Helper()
			got := append([]uint64(nil), orig...)
			RadixSortUint64(got, w)
			want := append([]uint64(nil), orig...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: element %d = %#x, want %#x", path, i, got[i], want[i])
				}
			}
		}

		check(keys, "small")
		if len(keys) > 0 {
			big := make([]uint64, 0, 5000)
			for len(big) < 5000 {
				big = append(big, keys...)
			}
			check(big, "amplified")
		}
	})
}
