// Package sunway reproduces the paper's on-chip bucketing comparison
// (Section 4.4, Figure 14) for the SW26010-Pro many-core processor, whose
// core groups (CGs) each hold 64 compute processing elements (CPEs).
//
// Its centerpiece is OCS-RMA (on-chip sorting with RMA): a CG's CPEs split
// into 32 producers and 32 consumers, and exclusive bucket ownership
// replaces per-message atomics. CPEs are goroutines and RMA puts are channel
// sends, with every transfer counted. The MPE/1-CG/6-CG contrast of Figure 14
// is reproduced by running the same work single-threaded, on one CG and on
// six CGs, and pricing the counted events with ChipModel.
package sunway

import "sync/atomic"

// Architecture constants of SW26010-Pro (paper Section 3.1).
const (
	CGsPerChip  = 6
	CPEsPerCG   = 64
	LDMBytes    = 256 << 10 // local data memory per CPE
	RMABufBytes = 512       // per-peer message buffer in OCS-RMA
	Producers   = 32        // OCS-RMA producer cores per CG
	Consumers   = 32        // OCS-RMA consumer cores per CG
)

// Counters aggregates simulated hardware events for a kernel run. All fields
// are updated atomically so CPE goroutines can share one instance.
type Counters struct {
	RMAPuts   atomic.Int64 // RMA put operations
	RMABytes  atomic.Int64 // bytes moved between LDMs
	DMABytes  atomic.Int64 // bytes moved between LDM and main memory
	GLDGSTOps atomic.Int64 // direct (uncached) main-memory accesses
	AtomicOps atomic.Int64 // main-memory atomic operations (expensive)
}

// Snapshot returns a plain-struct copy for reporting.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		RMAPuts:   c.RMAPuts.Load(),
		RMABytes:  c.RMABytes.Load(),
		DMABytes:  c.DMABytes.Load(),
		GLDGSTOps: c.GLDGSTOps.Load(),
		AtomicOps: c.AtomicOps.Load(),
	}
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	RMAPuts, RMABytes    int64
	DMABytes             int64
	GLDGSTOps, AtomicOps int64
}
