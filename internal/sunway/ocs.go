package sunway

import (
	"sync"
	"sync/atomic"
)

// OCS-RMA: on-chip sorting with RMA (paper Section 4.4, Figure 8).
//
// The 64 CPEs of a core group are split into 32 producers and 32 consumers.
// Producers scan their share of the input, buffering each record in one of 32
// per-consumer send buffers (512 bytes each); a full buffer is shipped to the
// consumer with one RMA put. Consumer j exclusively owns every bucket b with
// b mod 32 == j, so no atomics are needed inside a CG. Across CGs the only
// shared state is the input cursor, claimed with an atomic add, mirroring the
// paper's rare cross-CG atomics and slightly lower 6-CG efficiency.

// batchFor returns the number of records of size bytes fitting the 512-byte
// RMA buffer.
func batchFor(recBytes int) int {
	n := RMABufBytes / recBytes
	if n < 1 {
		n = 1
	}
	return n
}

// BucketMPE is the sequential reference bucketing, modeling the management
// processing element: one core, no LDM, direct main-memory access.
func BucketMPE[T any](items []T, buckets int, f func(T) int) [][]T {
	counts := make([]int, buckets)
	for _, it := range items {
		counts[f(it)]++
	}
	out := make([][]T, buckets)
	for b := range out {
		out[b] = make([]T, 0, counts[b])
	}
	for _, it := range items {
		b := f(it)
		out[b] = append(out[b], it)
	}
	return out
}

// OCSConfig tunes the OCS-RMA kernel.
type OCSConfig struct {
	CGs      int       // core groups to use: 1 or 6 in the paper's Figure 14
	Counters *Counters // optional event accounting
	RecBytes int       // record size for RMA batch sizing; 0 means 8
}

func (c OCSConfig) withDefaults() OCSConfig {
	if c.CGs <= 0 {
		c.CGs = 1
	}
	if c.Counters == nil {
		c.Counters = &Counters{}
	}
	if c.RecBytes <= 0 {
		c.RecBytes = 8
	}
	return c
}

// ocsChunk is the unit of input claimed by a CG at a time when multiple CGs
// cooperate (large enough that the atomic claim is rare).
const ocsChunk = 1 << 16

// BucketOCS buckets items with the OCS-RMA organization and returns
// per-bucket contents. Record order within a bucket is unspecified (as with
// any parallel bucket sort); the multiset per bucket equals BucketMPE's.
func BucketOCS[T any](items []T, buckets int, f func(T) int, cfg OCSConfig) [][]T {
	cfg = cfg.withDefaults()
	if len(items) == 0 {
		return make([][]T, buckets)
	}
	// out[cg][b] is written exclusively by the consumer owning b in cg.
	out := make([][][]T, cfg.CGs)
	for cg := range out {
		out[cg] = make([][]T, buckets)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for cg := 0; cg < cfg.CGs; cg++ {
		wg.Add(1)
		go func(cg int) {
			defer wg.Done()
			runCGBucket(items, buckets, f, cfg, &cursor, out[cg])
		}(cg)
	}
	wg.Wait()
	final := make([][]T, buckets)
	for b := 0; b < buckets; b++ {
		total := 0
		for cg := 0; cg < cfg.CGs; cg++ {
			total += len(out[cg][b])
		}
		final[b] = make([]T, 0, total)
		for cg := 0; cg < cfg.CGs; cg++ {
			final[b] = append(final[b], out[cg][b]...)
		}
	}
	return final
}

// runCGBucket runs one core group's 32 producers and 32 consumers over
// chunks of the input claimed from the shared cursor.
func runCGBucket[T any](items []T, buckets int, f func(T) int, cfg OCSConfig, cursor *atomic.Int64, out [][]T) {
	batch := batchFor(cfg.RecBytes)
	// One channel per consumer; capacity models its 32 receive buffers.
	chans := make([]chan []T, Consumers)
	for j := range chans {
		chans[j] = make(chan []T, Producers)
	}
	var wg sync.WaitGroup
	// Consumers: exclusive owners of buckets b with b%Consumers == j.
	for j := 0; j < Consumers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for recs := range chans[j] {
				for _, it := range recs {
					b := f(it)
					out[b] = append(out[b], it)
				}
			}
		}(j)
	}
	// Producers: claim chunks, fill per-consumer send buffers, RMA-put full
	// buffers to consumers.
	var pw sync.WaitGroup
	for p := 0; p < Producers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			bufs := make([][]T, Consumers)
			for j := range bufs {
				bufs[j] = make([]T, 0, batch)
			}
			for {
				lo := int(cursor.Add(ocsChunk)) - ocsChunk
				if lo >= len(items) {
					break
				}
				if cfg.CGs > 1 {
					cfg.Counters.AtomicOps.Add(1) // cross-CG cursor claim
				}
				hi := lo + ocsChunk
				if hi > len(items) {
					hi = len(items)
				}
				cfg.Counters.DMABytes.Add(int64(hi-lo) * int64(cfg.RecBytes))
				for _, it := range items[lo:hi] {
					j := f(it) % Consumers
					bufs[j] = append(bufs[j], it)
					if len(bufs[j]) == batch {
						cfg.Counters.RMAPuts.Add(1)
						cfg.Counters.RMABytes.Add(int64(batch * cfg.RecBytes))
						chans[j] <- bufs[j]
						bufs[j] = make([]T, 0, batch)
					}
				}
			}
			for j, b := range bufs {
				if len(b) > 0 {
					cfg.Counters.RMAPuts.Add(1)
					cfg.Counters.RMABytes.Add(int64(len(b) * cfg.RecBytes))
					chans[j] <- b
				}
			}
		}()
	}
	pw.Wait()
	for j := range chans {
		close(chans[j])
	}
	wg.Wait()
}
