// Package psort holds the parallel LSD radix sort for dense uint64 keys.
// The paper's preprocessing sorts the edge list in place with PSRS and a
// PARADIS-style local pass (Section 5, "In-place global sort"); this
// repository builds its partitions with stable counting passes instead
// (internal/partition), so only the radix kernel survives, timed by the
// benchmark's layer report.
package psort

import (
	"runtime"
	"sync"
)

// Each pass is a stable counting-sort on one 8-bit digit: histogram, prefix
// sum, scatter — all three parallel across the worker chunking, with
// per-chunk write cursors so concurrent scatters stay stable and never share
// a destination slot. Digits that are constant across the whole input (the
// common case for dense keys, whose high bytes are all zero) cost one
// histogram scan and no scatter.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits
)

// radixChunks splits n elements into per-worker [lo, hi) ranges.
func radixChunks(n, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// radixActiveDigits scans keys once (in parallel) and returns the digit
// positions that actually vary. A digit whose 256-way histogram has a single
// occupied bucket orders nothing and is skipped entirely.
func radixActiveDigits(keys []uint64, workers int) []int {
	chunks := radixChunks(len(keys), workers)
	hists := make([][radixDigits][radixBuckets]int64, len(chunks))
	var wg sync.WaitGroup
	for c, b := range chunks {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			h := &hists[c]
			for _, k := range keys[lo:hi] {
				for d := 0; d < radixDigits; d++ {
					h[d][(k>>(uint(d)*radixBits))&(radixBuckets-1)]++
				}
			}
		}(c, b[0], b[1])
	}
	wg.Wait()
	var active []int
	for d := 0; d < radixDigits; d++ {
		occupied := 0
		for b := 0; b < radixBuckets; b++ {
			var total int64
			for c := range hists {
				total += hists[c][d][b]
			}
			if total > 0 {
				occupied++
				if occupied > 1 {
					active = append(active, d)
					break
				}
			}
		}
	}
	return active
}

// radixCursors computes, for one digit, the per-chunk stable write cursors:
// chunk c's bucket b starts at the global bucket offset plus everything
// earlier chunks put in that bucket. hists[c][b] is chunk c's count of
// digit value b in the current src layout.
func radixCursors(hists [][radixBuckets]int64) {
	var gstart [radixBuckets]int64
	var acc int64
	for b := 0; b < radixBuckets; b++ {
		gstart[b] = acc
		for c := range hists {
			acc += hists[c][b]
		}
	}
	var run [radixBuckets]int64
	for c := range hists {
		for b := 0; b < radixBuckets; b++ {
			cnt := hists[c][b]
			hists[c][b] = gstart[b] + run[b]
			run[b] += cnt
		}
	}
}

// radixSortUint64 sorts keys by the given live digit passes (least
// significant first), ping-ponging through one scratch buffer.
func radixSortUint64(keys []uint64, active []int, workers int) {
	if len(active) == 0 || len(keys) < 2 {
		return
	}
	chunks := radixChunks(len(keys), workers)
	hists := make([][radixBuckets]int64, len(chunks))
	scratch := make([]uint64, len(keys))
	src, dst := keys, scratch
	for _, d := range active {
		shift := uint(d) * radixBits
		var wg sync.WaitGroup
		for c, b := range chunks {
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				h := &hists[c]
				*h = [radixBuckets]int64{}
				for _, k := range src[lo:hi] {
					h[(k>>shift)&(radixBuckets-1)]++
				}
			}(c, b[0], b[1])
		}
		wg.Wait()
		radixCursors(hists)
		for c, b := range chunks {
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				cur := &hists[c]
				for _, k := range src[lo:hi] {
					b := (k >> shift) & (radixBuckets - 1)
					dst[cur[b]] = k
					cur[b]++
				}
			}(c, b[0], b[1])
		}
		wg.Wait()
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// RadixSortUint64 sorts keys ascending with the parallel LSD radix kernel.
// The differential fuzz target pins its output bit-for-bit against the
// stdlib sort. 0 workers means GOMAXPROCS.
func RadixSortUint64(keys []uint64, workers int) {
	workers = defaultWorkers(workers)
	radixSortUint64(keys, radixActiveDigits(keys, workers), workers)
}

func defaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
