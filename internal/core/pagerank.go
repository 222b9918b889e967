package core

import (
	"math"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// pagerankState is damped PageRank power iteration on the engine's fast path:
// every round each vertex sends rank/degree along each of its edges, and the
// new rank is (1-damping)/N + damping*(received + dangling/N), where the
// dangling mass (the rank held by degree-0 vertices) is spread uniformly so
// the ranks keep summing to one.
//
// PageRank is dense by nature: every vertex sends every round. beginIter
// therefore latches DirPush on every component and never marks one sparse, so
// its exchanges always take ship's dense arm; Hierarchical and Segmented
// change nothing either (its L2L is the flat exchange and it has no pull
// kernel).
//
// Hub contributions are delegated additively, like k-core's degree
// decrements: every rank accumulates into its replicated hubAcc locally
// (EH2EH, L2E and L2H need no message), and the epilogue sums hubAcc with
// AllreduceSumFloat64 down the column and then along the row. That is a
// reduce-scatter plus allgather, so every member folds in the same member
// order and every replica holds the bit-identical sum — which the replicated
// hub apply needs. syncTouched's "own value plus the others" fold would give
// each rank its own summation order, and PageRank touches every hub every
// round, so a touched-set sync would save nothing anyway.
//
// Stopping at the caller's round budget is a normal stop, not
// ErrNoConvergence: endIter reports convergence at delta <= tol or on the
// budget's last round, so tol = 0 runs exactly the budget.
type pagerankState struct {
	valueBase

	damping, tol float64
	budget       int // the caller's round budget

	lIsHub *bitmap.Bitmap // owner slots shadowed by hub delegation (the engine's mask; read-only)
	deg    []int64        // the owned block of the degree table

	// hubBits and lBits are the checkpointed form, Float64bits of each rank,
	// and the only storage: hubVal and lVal are views of them.
	hubBits, lBits []int64
	hubVal, lVal   []float64
	hubAcc, lAcc   []float64 // this round's received contributions

	dangling float64 // this round's global dangling mass
	delta    float64 // the last round's global L1 change

	pendDelta, pendDangling float64 // epilogue's agreed sums, committed by endIter
}

// newPageRankState declares the ranks as the persisted state, with the
// dangling mass riding the ActiveL scalar as its bit pattern (the bitmap
// slots are unused). The accumulators are additive across kernels and the
// epilogue overwrites the ranks in place, so a retried step rolls back both;
// the accumulators are views of bit-pattern arrays so they can be declared.
func newPageRankState(e *Engine, r *comm.Rank, damping, tol float64, budget int) *pagerankState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	hubAccBits, lAccBits := make([]int64, k), make([]int64, per)
	st := &pagerankState{
		valueBase: newValueBase(e, r),
		damping:   damping,
		tol:       tol,
		budget:    budget,
		lIsHub:    bitmap.FromWords(e.lRows[r.ID].isHub, per),
		deg:       ownedSeg(e, r.ID, e.Part.Degrees),
		hubBits:   make([]int64, k),
		lBits:     make([]int64, per),
		hubAcc:    float64View(hubAccBits),
		lAcc:      float64View(lAccBits),
	}
	st.hubVal, st.lVal = float64View(st.hubBits), float64View(st.lBits)
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: [partition.NumComponents]func() (int64, error){
			st.ehPush, st.e2lPush, st.h2lPush, st.lToHubs(&st.rg.LToE), st.lToHubs(&st.rg.LToH), st.l2lPush}}},
		epilogue: st.epilogue,
		pHub:     st.hubBits, pL: st.lBits,
		activeL: bitsOf(&st.dangling),
		vals:    [][]int64{hubAccBits, lAccBits},
	})
	return st
}

// bootstrap starts from the uniform distribution. Only L vertices can dangle
// (a hub's degree is at least the H threshold, which is positive), so the
// first round's dangling mass is the global dangling-L count over N.
func (st *pagerankState) bootstrap() error {
	n := float64(st.e.Part.Layout.N)
	for h := range st.hubVal {
		st.hubVal[h] = 1 / n
	}
	var dangling int64
	for li, d := range st.deg {
		if st.lIsHub.Test(li) {
			continue
		}
		st.lVal[li] = 1 / n
		if d == 0 {
			dangling++
		}
	}
	st.dangling = float64(comm.ControlSumInt64(st.r.World, dangling)) / n
	return nil
}

// beginIter latches the all-push dense schedule and clears the accumulators.
func (st *pagerankState) beginIter(it *IterTrace) {
	hubs := st.e.Part.Hubs
	it.ActiveE, it.ActiveH = int64(hubs.NumE), int64(hubs.NumH)
	it.ActiveL = st.e.Part.Layout.N - int64(st.k)
	for c := range it.Directions {
		it.Directions[c] = stats.DirPush
	}
	clear(st.hubAcc)
	clear(st.lAcc)
}

// hubShare is what hub h sends along each of its edges.
func (st *pagerankState) hubShare(h int32) float64 {
	return st.hubVal[h] / float64(st.e.Part.Hubs.Deg[h])
}

// ehPush: every source hub contributes to its destination hubs over this
// rank's 2D core-subgraph block, into the local replicated partial.
func (st *pagerankState) ehPush() (int64, error) {
	push := &st.rg.EHPush
	return hubRows(push.IDs, push.Ptr, push.Adj, nil, func(src int32, row []int32) {
		share := st.hubShare(src)
		for _, dst := range row {
			st.hubAcc[dst] += share
		}
	}), nil
}

// e2lPush: E hubs contribute to owned L vertices locally.
func (st *pagerankState) e2lPush() (int64, error) {
	csr := &st.rg.EToL
	return hubRows(csr.IDs, csr.Ptr, csr.Adj, nil, func(hub int32, row []int32) {
		share := st.hubShare(hub)
		for _, li := range row {
			st.lAcc[li] += share
		}
	}), nil
}

// h2lPush: H hubs in this rank's column block send their share to their L
// neighbors' owners along the row (lMsg carries the share's bit pattern).
func (st *pagerankState) h2lPush() (int64, error) {
	csr := &st.rg.HToL
	send := sendParts(&st.valueBase, partition.CompH2L, &st.scr.lParts, st.e.Opt.Mesh.Cols)
	edges := hubRows(csr.IDs, csr.Ptr, csr.Adj, nil, func(hub int32, row []partition.RemoteL) {
		bits := int64(math.Float64bits(st.hubShare(hub)))
		for _, rem := range row {
			send[rem.Col] = append(send[rem.Col], lMsg{LIdx: rem.LIdx, Parent: bits})
		}
	})
	return edges, ship(&st.valueBase, partition.CompH2L, send, func(recv [][]lMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lAcc[m.LIdx] += math.Float64frombits(uint64(m.Parent))
			}
		}
	}, nil)
}

// lToHubs is L2E (csr = LToE) and L2H (csr = LToH): owned L vertices
// contribute to their E or H neighbors in the local replicated partial —
// additive delegation needs no message; the epilogue's two-stage sum carries
// it.
func (st *pagerankState) lToHubs(csr *partition.DenseCSR32) func() (int64, error) {
	return func() (int64, error) {
		return lRows(csr.Ptr, csr.Adj, nil, func(li int, row []int32) {
			share := st.lVal[li] / float64(st.deg[li])
			for _, hub := range row {
				st.hubAcc[hub] += share
			}
		}), nil
	}
}

// l2lPush: owned L vertices send their share to their L neighbors' owners in
// one world alltoallv (l2lMsg carries the share's bit pattern).
func (st *pagerankState) l2lPush() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := sendParts(&st.valueBase, partition.CompL2L, &st.scr.l2lParts, layout.P)
	edges := lRows(csr.Ptr, csr.Adj, nil, func(li int, row []int64) {
		bits := int64(math.Float64bits(st.lVal[li] / float64(st.deg[li])))
		for _, dst := range row {
			owner := layout.Owner(dst)
			send[owner] = append(send[owner], l2lMsg{Dst: dst, Parent: bits})
		}
	})
	return edges, ship(&st.valueBase, partition.CompL2L, send, func(recv [][]l2lMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lAcc[layout.LocalIdx(m.Dst)] += math.Float64frombits(uint64(m.Parent))
			}
		}
	}, nil)
}

// epilogue sums the hub partials column-then-row, applies the new ranks (the
// hub apply is replicated: identical sums everywhere), and agrees on the
// round's L1 change — each hub's counted once, by the owner of its original
// vertex — and the next round's dangling mass. All three collectives run
// unconditionally so every rank keeps the same schedule under faults; a
// garbled sum is discarded by the step retry's snapshot restore.
func (st *pagerankState) epilogue() error {
	firstErr := st.observeCollective(stats.PhaseOther, trace.KindSync, "pagerank_sync", func() error {
		if st.k == 0 {
			return nil
		}
		err := comm.AllreduceSumFloat64(st.r.ColC, st.hubAcc)
		if e2 := comm.AllreduceSumFloat64(st.r.RowC, st.hubAcc); err == nil {
			err = e2
		}
		return err
	})
	layout := st.e.Part.Layout
	n := float64(layout.N)
	base, share := (1-st.damping)/n, st.dangling/n
	var delta, dangling float64
	for h, acc := range st.hubAcc {
		nv := base + st.damping*(acc+share)
		if layout.Owner(st.e.Part.Hubs.Orig[h]) == st.r.ID {
			delta += math.Abs(nv - st.hubVal[h])
		}
		st.hubVal[h] = nv
	}
	for li, d := range st.deg {
		if st.lIsHub.Test(li) {
			continue
		}
		nv := base + st.damping*(st.lAcc[li]+share)
		delta += math.Abs(nv - st.lVal[li])
		st.lVal[li] = nv
		if d == 0 {
			dangling += nv
		}
	}
	sums := []float64{delta, dangling}
	err := comm.AllreduceSumFloat64(st.r.World, sums)
	if firstErr == nil {
		firstErr = err
	}
	if err == nil {
		st.pendDelta, st.pendDangling = sums[0], sums[1]
	}
	return firstErr
}

// endIter commits the agreed sums; the run stops at delta <= tol or on the
// last round of the caller's budget (curIter is the absolute round index, so
// a resumed run keeps counting from its checkpoint).
func (st *pagerankState) endIter(it *IterTrace) bool {
	st.delta, st.dangling = st.pendDelta, st.pendDangling
	return st.delta <= st.tol || int(st.curIter)+1 >= st.budget
}
