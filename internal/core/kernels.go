package core

import (
	"math/bits"

	"repro/internal/partition"
)

// This file holds BFS's pulls, the paper's sub-iteration direction
// optimization (contribution 2); its pushes are the claim push every plane
// declares (state.go, value.go).

// pushMsg is the one push record: Dst is an L vertex's local index (H2L), a
// hub (L2H, delegate syncs) or an L vertex's original ID (L2L, whose owner
// and, under Options.Hierarchical, forwarder derive from it). BFS parents
// travel as original vertex IDs; the value workloads carry their value's bits
// in Parent.
type pushMsg struct {
	Dst    int64
	Parent int64
}

// ehPull is the bottom-up core-subgraph kernel: scan unvisited destination
// hubs in the row block, probing source hubs in the column block against the
// replicated frontier, with early exit on the first active parent.
func (st *rankState) ehPull() int64 {
	pull := &st.rg.EHPull
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, dst := range pull.IDs {
		if st.hubVisited.Test(int(dst)) || st.hubNew.Test(int(dst)) {
			continue
		}
		for _, src := range pull.Adj[pull.Ptr[i]:pull.Ptr[i+1]] {
			edges++
			if st.hubFrontier.Test(int(src)) {
				st.hubNew.Set(int(dst))
				st.parentHub[dst] = orig[src]
				break
			}
		}
	}
	return edges
}

// --- E2L / H2L (hub -> L) ---------------------------------------------------

// e2lPull: unvisited owned L vertices probe their E neighbors against the
// replicated frontier; local, with early exit.
func (st *rankState) e2lPull() int64 {
	return st.hubToLPull(&st.rg.LToE, st.e.lRows[st.r.ID].toE)
}

// hubToLPull is the shared body of the E2L and H2L pulls. Candidates come a
// word at a time: has marks the owned L vertices with a non-empty row in csr,
// so has &^ (visited | new) is exactly the set the bit-at-a-time loop header
// used to let through, and a visited vertex costs 1/64 of a load instead of
// a branch. Set bits are walked in ascending order and a probe only ever sets
// its own vertex's lNew bit, so taking the word's candidates once up front
// visits the same vertices in the same order with the same early exits.
func (st *rankState) hubToLPull(csr *partition.DenseCSR32, has []uint64) int64 {
	orig := st.e.Part.Hubs.Orig
	visited, lNew := st.lVisited.Words(), st.lNew.Words()
	var edges int64
	for w, h := range has {
		for cand := h &^ (visited[w] | lNew[w]); cand != 0; cand &= cand - 1 {
			li := w<<6 | bits.TrailingZeros64(cand)
			for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
				edges++
				if st.hubFrontier.Test(int(hub)) {
					lNew[w] |= cand & -cand
					st.parentL[li] = orig[hub]
					break
				}
			}
		}
	}
	return edges
}

// h2lPull: unvisited owned L vertices probe their H neighbors against the
// replicated hub frontier; local thanks to delegation.
func (st *rankState) h2lPull() int64 {
	return st.hubToLPull(&st.rg.LToH, st.e.lRows[st.r.ID].toH)
}

// --- L2E / L2H (L -> hub) ---------------------------------------------------

// l2ePull: unvisited E hubs probe their owned-L neighbors against the local
// frontier; every rank does its share, with per-rank early exit.
func (st *rankState) l2ePull() int64 {
	csr := &st.rg.EToL
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if st.hubVisited.Test(int(hub)) || st.hubNew.Test(int(hub)) {
			continue
		}
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if st.lFrontier.Test(int(li)) {
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(st.r.ID, li)
				break
			}
		}
	}
	return edges
}

// l2hPullScan is the L2H pull: unvisited H hubs in this rank's column block
// probe their L neighbors across the row against rowFrontier, the row-wide L
// frontier the workload gathered, with early exit.
func (st *rankState) l2hPullScan() int64 {
	per := int(st.e.Part.Layout.PerRank)
	mesh := st.e.Opt.Mesh
	csr := &st.rg.HToL
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if st.hubVisited.Test(int(hub)) || st.hubNew.Test(int(hub)) {
			continue
		}
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if st.rowFrontier.Test(int(rem.Col)*per + int(rem.LIdx)) {
				owner := mesh.RankAt(st.r.Row, int(rem.Col))
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(owner, rem.LIdx)
				break
			}
		}
	}
	return edges
}

// --- L2L ---------------------------------------------------------------------

// l2lPullScan is the L2L pull: unvisited owned L vertices probe their
// neighbors, with early exit, against worldFrontier — the L frontier of every
// rank, gathered by the workload and indexed by original vertex ID thanks to
// the padded block layout. Same word-parallel candidate scan as hubToLPull.
func (st *rankState) l2lPullScan() int64 {
	csr := &st.rg.L2L
	visited, lNew := st.lVisited.Words(), st.lNew.Words()
	var edges int64
	for w, h := range st.e.lRows[st.r.ID].toL {
		for cand := h &^ (visited[w] | lNew[w]); cand != 0; cand &= cand - 1 {
			li := w<<6 | bits.TrailingZeros64(cand)
			for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
				edges++
				if st.worldFrontier.Test(int(dst)) {
					lNew[w] |= cand & -cand
					st.parentL[li] = dst
					break
				}
			}
		}
	}
	return edges
}
