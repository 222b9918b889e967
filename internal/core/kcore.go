package core

import (
	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
)

// kcoreState is k-core peeling on the engine's fast path. Every iteration
// marks the live vertices whose remaining degree fell below the threshold and
// sends one degree decrement along each of their edges through the six
// components: hub-sourced and hub-targeted decrements accumulate in a local
// replicated partial (hubDec) whose non-zero slots the epilogue sum-folds
// column-then-row (the two-stage sum over the mesh equals the world sum —
// delegation for additive state), while L-targeted decrements travel as
// owner-directed messages (dense alltoallv, or sparse records on small peel
// rounds).
//
// L2H never exchanges: a hub decrement from an owned L vertex lands in the
// local hubDec partial, so the workload's row batch stays off (rowBatch=false
// in chooseSchedule). The sparse/dense choice keys off the previous round's
// globally agreed peel count — peel cascades typically decay, mirroring the
// BFS tail.
type kcoreState struct {
	valueBase

	kth int64 // the core threshold (the "k" of k-core)

	hubDeg, lDeg []int64 // remaining degrees (hub: replicated, L: owner-local)
	hubDec, lDec []int64 // this iteration's decrements

	hubRemoved, hubPeel *bitmap.Bitmap
	lRemoved, lPeel     *bitmap.Bitmap
	lIsHub              *bitmap.Bitmap // owner slots shadowed by hub delegation (the engine's mask; read-only)

	liveL      int64 // global count of live (unremoved, non-hub) L vertices
	lastPeeled int64 // previous round's agreed global peel count; -1 first round

	peeledOwn, peeledL      int64 // this round's local counts (beginIter)
	pendPeeled, pendPeeledL int64 // epilogue's agreed counts, committed by endIter
}

// newKCoreState declares removal bitmaps and remaining degrees as the
// persisted state. The peel bitmaps and decrement arrays are empty at every
// capture point (the epilogue clears them), so the peel bitmaps double as the
// writer's second bitmap pair; lastPeeled rides the VisitL scalar to keep the
// post-resume sparse choice in lockstep. Degrees and decrements are additive,
// not monotone across a failed partial sum, so the decrements roll back too.
func newKCoreState(e *Engine, r *comm.Rank, kth int64) *kcoreState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &kcoreState{
		valueBase:  newValueBase(e, r),
		kth:        kth,
		hubDeg:     make([]int64, k),
		lDeg:       make([]int64, per),
		hubDec:     make([]int64, k),
		lDec:       make([]int64, per),
		hubRemoved: bitmap.New(k),
		hubPeel:    bitmap.New(k),
		lRemoved:   bitmap.New(per),
		lPeel:      bitmap.New(per),
		lIsHub:     bitmap.FromWords(e.lRows[r.ID].isHub, per),
		lastPeeled: -1,
	}
	// The push sums one decrement per edge of a freshly peeled vertex.
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: pushKernels(&st.valueBase, &valuePush[int64]{
			hubSrc: st.hubPeel, lSrc: st.lPeel,
			hub: st.hubDec, l: st.lDec, sum: true, touched: &st.scr.touched,
		})}},
		epilogue: st.epilogue,
		hubF:     st.hubRemoved.Words(), hubV: st.hubPeel.Words(),
		lF: st.lRemoved.Words(), lV: st.lPeel.Words(),
		pHub: st.hubDeg, pL: st.lDeg,
		activeL: &st.liveL, visitL: &st.lastPeeled,
		vals: [][]int64{st.hubDec, st.lDec},
	})
	return st
}

// bootstrap loads the partitioner's degree table (hub degrees replicated, L
// degrees owner-local) and agrees on the global live-L count.
func (st *kcoreState) bootstrap() error {
	layout := st.e.Part.Layout
	copy(st.hubDeg, st.e.Part.Hubs.Deg)
	var live int64
	for li := 0; li < st.rg.LocalN; li++ {
		st.lDeg[li] = st.e.Part.Degrees[layout.GlobalOf(st.r.ID, int32(li))]
		if !st.lIsHub.Test(li) {
			live++
		}
	}
	st.liveL = comm.ControlSumInt64(st.r.World, live)
	return nil
}

// beginIter latches the schedule, then marks the round's peel. Peeling has no
// per-component active-source count before the marks are computed, so every
// component keys off the previous round's agreed global peel count — the
// sparse tail engages as the cascade decays. The first round has no history
// and stays dense.
func (st *kcoreState) beginIter(it *IterTrace) {
	it.ActiveE = st.numE - int64(st.hubRemoved.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.k) - st.numE - int64(st.hubRemoved.CountRange(int(st.numE), st.k))
	it.ActiveL = st.liveL
	proxy := st.lastPeeled
	if proxy < 0 {
		proxy = st.e.sparseCutoff() + 1
	}
	var act [partition.NumComponents]int64
	for c := range act {
		act[c] = proxy
	}
	st.chooseSchedule(it, act, false, false)
	st.pendPeeled, st.pendPeeledL = 0, 0
	st.peelMark()
}

// peelMark marks every live vertex below the threshold. Hub removals are
// decided identically on every rank (replicated degrees); only the owner of
// the hub's original vertex counts them toward the global total.
func (st *kcoreState) peelMark() {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	st.peeledOwn, st.peeledL = 0, 0
	for h := 0; h < st.k; h++ {
		if !st.hubRemoved.Test(h) && st.hubDeg[h] < st.kth {
			st.hubRemoved.Set(h)
			st.hubPeel.Set(h)
			if layout.Owner(hubs.Orig[h]) == st.r.ID {
				st.peeledOwn++
			}
		}
	}
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lIsHub.Test(li) || st.lRemoved.Test(li) {
			continue
		}
		if st.lDeg[li] < st.kth {
			st.lRemoved.Set(li)
			st.lPeel.Set(li)
			st.peeledOwn++
			st.peeledL++
		}
	}
}

// epilogue sum-folds the non-zero hub decrements column-then-row, applies
// both decrement arrays, clears the round's marks, and agrees on the global
// peel count. Both collectives run unconditionally so every rank keeps the
// same schedule under faults; a garbled partial merge is discarded by the
// step retry's snapshot restore.
func (st *kcoreState) epilogue() error {
	t := &st.scr.touched
	firstErr := syncTouched(&st.valueBase, "deg_sync", &st.scr.hubRecs,
		func(h int32) pushMsg { return pushMsg{Dst: int64(h), Parent: st.hubDec[h]} },
		func(m pushMsg) (int32, bool) {
			st.hubDec[m.Dst] += m.Parent
			return int32(m.Dst), true
		})
	for _, h := range t.list {
		st.hubDeg[h] -= st.hubDec[h]
		st.hubDec[h] = 0
	}
	t.clear()
	for li := range st.lDec {
		st.lDeg[li] -= st.lDec[li]
		st.lDec[li] = 0
	}
	st.hubPeel.Reset()
	st.lPeel.Reset()
	var err error
	st.pendPeeled, st.pendPeeledL, err = st.agree(st.peeledOwn, st.peeledL)
	if firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// endIter commits the agreed counts; the peel converges when a whole round
// removed nothing anywhere.
func (st *kcoreState) endIter(it *IterTrace) bool {
	st.lastPeeled = st.pendPeeled
	st.liveL -= st.pendPeeledL
	return st.pendPeeled == 0
}
