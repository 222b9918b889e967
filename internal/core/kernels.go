package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
)

// pushMsg is the one push record: Dst is an L vertex's local index (H2L), a
// hub (L2H, EH2EH worker buffers, delegate syncs) or an L vertex's original
// ID (BFS's L2L, whose owner and, under Options.Hierarchical, forwarder
// derive from it). BFS parents travel as original vertex IDs; the value
// workloads carry their value's bits in Parent.
type pushMsg struct {
	Dst    int64
	Parent int64
}

// --- EH2EH -----------------------------------------------------------------

// ehPush is the top-down kernel over the 2D-partitioned core subgraph:
// scan active source hubs in this rank's column block, activate destination
// hubs in its row block. With RankWorkers > 1 the active sources are split by
// the edge-aware vertex-cut (Section 5): chunk boundaries follow the prefix
// sum of active-source degrees, not source counts, so one heavy hub cannot
// serialize the kernel.
func (st *rankState) ehPush() int64 {
	push := &st.rg.EHPush
	orig := st.e.Part.Hubs.Orig
	// Collect active source positions.
	active := st.scr.active[:0]
	for i, src := range push.IDs {
		if st.hubFrontier.Test(int(src)) {
			active = append(active, int32(i))
		}
	}
	st.scr.active = active
	if len(active) == 0 {
		return 0
	}
	workers := st.e.Opt.RankWorkers
	if workers == 1 || len(active) < 2*workers {
		var edges int64
		for _, i := range active {
			parent := orig[push.IDs[i]]
			for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
				edges++
				if !st.hubVisited.Test(int(dst)) && !st.hubNew.Test(int(dst)) {
					st.hubNew.Set(int(dst))
					st.parentHub[dst] = parent
				}
			}
		}
		return edges
	}
	// Edge-aware vertex cut: prefix-sum active degrees, then split evenly by
	// accumulated degree.
	prefix := make([]int64, len(active)+1)
	for j, i := range active {
		prefix[j+1] = prefix[j] + (push.Ptr[i+1] - push.Ptr[i])
	}
	chunks := edgeCutChunks(prefix, workers)
	// Workers emit candidates into private buffers; the apply step is
	// serial, mirroring the atomics-free discipline of the chip kernels.
	bufs := make([][]pushMsg, len(chunks))
	edgesPer := make([]int64, len(chunks))
	var wg sync.WaitGroup
	for w, ch := range chunks {
		wg.Add(1)
		go func(w int, lo, hi int) {
			defer wg.Done()
			var buf []pushMsg
			var edges int64
			for _, i := range active[lo:hi] {
				parent := orig[push.IDs[i]]
				for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
					edges++
					if !st.hubVisited.Test(int(dst)) {
						buf = append(buf, pushMsg{Dst: int64(dst), Parent: parent})
					}
				}
			}
			bufs[w] = buf
			edgesPer[w] = edges
		}(w, ch[0], ch[1])
	}
	wg.Wait()
	var edges int64
	for w := range bufs {
		edges += edgesPer[w]
		for _, m := range bufs[w] {
			st.applyOneHub(m)
		}
	}
	return edges
}

// edgeCutChunks splits [0, len(prefix)-1) into up to `workers` ranges of
// near-equal accumulated weight. prefix is the weight prefix sum.
func edgeCutChunks(prefix []int64, workers int) [][2]int {
	n := len(prefix) - 1
	total := prefix[n]
	var chunks [][2]int
	lo := 0
	for w := 1; w <= workers && lo < n; w++ {
		target := total * int64(w) / int64(workers)
		hi := sort.Search(n+1, func(i int) bool { return prefix[i] >= target })
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n || w == workers {
			hi = n
		}
		chunks = append(chunks, [2]int{lo, hi})
		lo = hi
	}
	return chunks
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

// e2lPush: active E hubs activate owned L vertices; purely local because E is
// delegated on every rank.
func (st *rankState) e2lPush() int64 {
	csr := &st.rg.EToL
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubFrontier.Test(int(hub)) {
			continue
		}
		parent := orig[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if !st.lVisited.Test(int(li)) && !st.lNew.Test(int(li)) {
				st.lNew.Set(int(li))
				st.parentL[li] = parent
			}
		}
	}
	return edges
}

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

// h2lPush is the H2L push: active H hubs in this rank's column block message
// their L neighbors' owners along the row (the component is stored at the
// intersection of H's column and the owner's row). It walks the component
// once, appending every activation to send by destination column; the base
// ships them dense or sparse. Both forms generate through this one loop body,
// which is what keeps their receiver-side apply streams identical message for
// message.
func (st *rankState) h2lPush(send [][]pushMsg) int64 {
	csr := &st.rg.HToL
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubFrontier.Test(int(hub)) {
			continue
		}
		parent := orig[hub]
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			send[rem.Col] = append(send[rem.Col], pushMsg{Dst: int64(rem.LIdx), Parent: parent})
		}
	}
	return edges
}

// h2lPull: unvisited owned L vertices probe their H neighbors against the
// replicated hub frontier; local thanks to delegation.
func (st *rankState) h2lPull() int64 {
	return st.hubToLPull(&st.rg.LToH, st.e.lRows[st.r.ID].toH)
}

// applyLMsgs applies received L activation messages owner-locally. With
// RankWorkers > 1 and enough messages it uses the two-stage destination
// update (paper Section 4.4, third OCS-RMA use case): messages are coarse-
// sorted into word-aligned index ranges, and each range is applied by
// exactly one worker — no atomics, no racing bitmap words.
func (st *rankState) applyLMsgs(recv [][]pushMsg) {
	total := 0
	for _, part := range recv {
		total += len(part)
	}
	workers := st.e.Opt.RankWorkers
	if workers > 1 && total >= 4*workers {
		st.applyLMsgsTwoStage(recv, total, workers)
		return
	}
	for _, part := range recv {
		for _, m := range part {
			st.applyOneL(m)
		}
	}
}

func (st *rankState) applyOneL(m pushMsg) {
	if !st.lVisited.Test(int(m.Dst)) && !st.lNew.Test(int(m.Dst)) {
		st.lNew.Set(int(m.Dst))
		st.parentL[m.Dst] = m.Parent
	}
}

// applyLMsgsTwoStage: stage one buckets messages by 64-bit-aligned index
// range (so two ranges never share a bitmap word); stage two applies each
// range on its own worker with exclusive ownership.
func (st *rankState) applyLMsgsTwoStage(recv [][]pushMsg, total, workers int) {
	words := (st.rg.LocalN + 63) / 64
	if words == 0 {
		return
	}
	ranges := workers * 4
	if ranges > words {
		ranges = words
	}
	wordsPer := (words + ranges - 1) / ranges
	buckets := make([][]pushMsg, ranges)
	per := total/ranges + 1
	for i := range buckets {
		buckets[i] = make([]pushMsg, 0, per)
	}
	for _, part := range recv {
		for _, m := range part {
			r := int(m.Dst) / 64 / wordsPer
			buckets[r] = append(buckets[r], m)
		}
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= ranges {
					return
				}
				for _, m := range buckets[r] {
					st.applyOneL(m)
				}
			}
		}()
	}
	wg.Wait()
}

// --- L2E / L2H (L -> hub) ---------------------------------------------------

// l2ePush: active owned L vertices activate E delegates locally (E is
// delegated everywhere, so no message leaves the rank).
func (st *rankState) l2ePush() int64 {
	csr := &st.rg.LToE
	layout := st.e.Part.Layout
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if !st.hubVisited.Test(int(hub)) && !st.hubNew.Test(int(hub)) {
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(st.r.ID, int32(li))
			}
		}
	})
	return edges
}

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

// l2hPush is the L2H push: active owned L vertices message the row delegate
// of each unvisited H neighbor (the rank in this row holding H's column),
// which records the delegate activation; the next hub sync propagates it. It
// appends every message to send by destination column — the one loop body
// behind the dense and the sparse exchange. Delegation knowledge
// (hubVisited) prunes the message first.
func (st *rankState) l2hPush(send [][]pushMsg) int64 {
	csr := &st.rg.LToH
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		parent := layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.hubVisited.Test(int(hub)) {
				continue // delegation knowledge saves the message
			}
			col := hubs.ColBlockOf(hub, mesh)
			send[col] = append(send[col], pushMsg{Dst: int64(hub), Parent: parent})
		}
	})
	return edges
}

// applyHubMsgs records received delegate activations (the L2H push's receive
// side), in part order.
func (st *rankState) applyHubMsgs(parts [][]pushMsg) {
	for _, part := range parts {
		for _, m := range part {
			st.applyOneHub(m)
		}
	}
}

func (st *rankState) applyOneHub(m pushMsg) {
	if !st.hubVisited.Test(int(m.Dst)) && !st.hubNew.Test(int(m.Dst)) {
		st.hubNew.Set(int(m.Dst))
		st.parentHub[m.Dst] = m.Parent
	}
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

// l2lPush is the L2L push: active owned L vertices message their L
// neighbors' owners, appending to send by owner rank — the one loop body
// behind the dense world alltoallv and the sparse world allgather — or, under
// Options.Hierarchical, by the owner's mesh row: stage 1 of the forwarding
// scheme, where messages hop via the intersection rank of the source column
// and destination row.
func (st *rankState) l2lPush(send [][]pushMsg) int64 {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	mesh := st.e.Opt.Mesh
	byRow := st.e.Opt.Hierarchical
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		parent := layout.GlobalOf(st.r.ID, int32(li))
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			to := layout.Owner(dst)
			if byRow {
				to = mesh.RowOf(to)
			}
			send[to] = append(send[to], pushMsg{Dst: dst, Parent: parent})
		}
	})
	return edges
}

func (st *rankState) applyL2L(recv [][]pushMsg) {
	layout := st.e.Part.Layout
	for _, part := range recv {
		for _, m := range part {
			st.applyOneL(pushMsg{Dst: int64(layout.LocalIdx(m.Dst)), Parent: m.Parent})
		}
	}
}

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
