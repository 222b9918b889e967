package core

import "repro/internal/comm"

// Distributed result assembly. On the socket backend each process hosts only
// a subset of ranks, so after a successful run the per-rank writers
// (assembleOwned, writeOwned) have filled only the local ranks' owned
// segments of the global result arrays. One extra control-plane gather pass
// per array ships every rank's owned contiguous block —
// [rank*PerRank, min((rank+1)*PerRank, N)) in partition.Layout terms, which
// by construction covers every write that rank's writer makes (owned L
// vertices plus the hub originals it owns) — to every process. The gather
// rides comm.ControlGatherSlices, so it is exempt from fault injection and
// traffic accounting: assembly is bookkeeping after the traversal, not part
// of the measured schedule.

// ownedSeg returns rank r's owned segment of a length-N global array.
func ownedSeg[T any](e *Engine, r int, arr []T) []T {
	lay := e.Part.Layout
	lo := int64(r) * lay.PerRank
	if lo >= lay.N {
		return nil
	}
	return arr[lo : lo+int64(lay.LocalCount(r))]
}

// gatherOwned merges arr across the processes of a distributed world: every
// rank contributes its owned segment, and on the process's lead rank the
// remote ranks' segments are copied back into arr. Local segments are
// already in place (their writers filled them before the gather), remote
// writes land in disjoint owned ranges, and only the lead rank writes, so
// the pass is race-free. Call from inside a World.Run body on every rank.
func gatherOwned[T any](e *Engine, r *comm.Rank, lead bool, arr []T) {
	all := comm.ControlGatherSlices(r.World, ownedSeg(e, r.ID, arr))
	if !lead {
		return
	}
	lay := e.Part.Layout
	for j, seg := range all {
		if len(seg) == 0 || e.World.IsLocal(j) {
			continue
		}
		copy(arr[int64(j)*lay.PerRank:], seg)
	}
}

// distAssemble runs one gather pass over a successful run's result arrays
// when the world is distributed; fill applies the per-rank gathers. It is a
// no-op on the in-process backend, where the writers already saw the whole
// array.
func (e *Engine) distAssemble(fill func(r *comm.Rank, lead bool)) {
	if !e.World.Distributed() {
		return
	}
	locals := e.World.LocalRanks()
	if len(locals) == 0 {
		// Every rank this process hosted was re-homed elsewhere by recovery;
		// with no world membership left there is no channel to gather on, so
		// this process's result arrays keep only their fill values.
		return
	}
	e.World.Run(func(r *comm.Rank) {
		fill(r, r.ID == locals[0])
	})
}
