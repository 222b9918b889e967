package core

import (
	"math"
	"unsafe"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// ssspState is delta-bucketed single-source shortest path on the engine's
// fast path, under the deterministic Graph 500 weights (sssp.WeightOf). The
// dirty sets track vertices whose tentative distance improved since they last
// relaxed; each iteration relaxes the dirty vertices whose distance falls
// inside the current bucket ((bucket+1)*delta), shipping (distance, parent)
// relaxations through the six components. Hub distances are delegated:
// replicated per rank and min-merged column-then-row after each hub-relaxing
// step, with a deterministic tie-break (equal distance -> larger parent) so
// every replica folds to the identical value. When a whole iteration improves
// nothing, the bucket advances to the smallest bucket holding a dirty vertex;
// the run converges when nothing improved and nothing is dirty.
//
// On the sparse tail each relaxation ships as two adjacent update records
// (distance bits, then parent) with the same destination/tag/offset; the
// receiver re-zips pairs in order, so the dense and sparse arms apply the
// identical relaxation sequence.
//
// What an iteration touches is what changed: base distances are latched for
// the relax set only, a hub re-enters the dirty set at the sync that makes
// its improvement global, and the epilogue's quiescence test is the
// iteration's count of successful relaxations.
type ssspState struct {
	driver

	root  int64
	seed  uint64
	delta float64

	k    int
	numE int64

	hubDist, hubBaseD []float64
	hubParent         []int64
	lDist, lBaseD     []float64
	lParent           []int64

	hubDirty, lDirty *bitmap.Bitmap // improved since last relaxed
	relaxHub, relaxL *bitmap.Bitmap // this iteration's in-bucket relax set

	bucket  int64
	activeL int64 // global dirty-L count (sparse/skip proxy)

	relaxations, relaxBase int64 // successful lowerings so far / as of beginIter

	pendImproved, pendAL, pendNext int64

	// hubPack and lPack are the checkpointed form, [Float64bits(dist)... |
	// parent...], and the only storage: the distance and parent slices above
	// are views of their two halves, so a capture packs nothing.
	hubPack, lPack []int64

	snaps [numSteps]ssspSnapshot
}

// distMsg relaxes one vertex: To is an L index at a known rank (H2L), a hub
// id (L2H and the delegate sync) or an original vertex id (L2L).
type distMsg struct {
	To     int64
	Dist   float64
	Parent int64
}

// ssspSnapshot rolls back a retried step: distance/parent updates are not
// monotone across a failed partial merge, the L dirty set grows during
// kernels, and the relaxation counter re-observes re-executed applies.
type ssspSnapshot struct {
	hubDist, lDist     []float64
	hubParent, lParent []int64
	hubDirty, lDirty   []uint64
	relaxations        int64
}

func snapFloat64(dst *[]float64, src []float64) {
	if cap(*dst) < len(src) {
		*dst = make([]float64, len(src))
	}
	*dst = (*dst)[:len(src)]
	copy(*dst, src)
}

func newSSSPState(e *Engine, r *comm.Rank, root int64, seed uint64, delta float64) *ssspState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &ssspState{
		driver:   newWorkloadDriver(e, r),
		root:     root,
		seed:     seed,
		delta:    delta,
		k:        k,
		numE:     int64(e.Part.Hubs.NumE),
		hubBaseD: make([]float64, k),
		lBaseD:   make([]float64, per),
		hubDirty: bitmap.New(k),
		lDirty:   bitmap.New(per),
		relaxHub: bitmap.New(k),
		relaxL:   bitmap.New(per),
		hubPack:  make([]int64, 2*k),
		lPack:    make([]int64, 2*per),
	}
	st.hubDist, st.hubParent = float64View(st.hubPack[:k]), st.hubPack[k:]
	st.lDist, st.lParent = float64View(st.lPack[:per]), st.lPack[per:]
	return st
}

// float64View reinterprets a slice of IEEE-754 bit patterns as the float64s
// they encode, sharing its memory (int64 and float64 agree in size and
// alignment).
func float64View(bits []int64) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(bits))), len(bits))
}

func (st *ssspState) drv() *driver { return &st.driver }

// bootstrap seeds infinite distances everywhere and the root at zero in
// bucket zero; the root's placement is replicated (hub) or owner-local (L).
func (st *ssspState) bootstrap() error {
	for h := 0; h < st.k; h++ {
		st.hubDist[h] = math.Inf(1)
		st.hubParent[h] = -1
	}
	for li := range st.lDist {
		st.lDist[li] = math.Inf(1)
		st.lParent[li] = -1
	}
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	var al int64
	if h, ok := hubs.HubOf(st.root); ok {
		st.hubDist[h] = 0
		st.hubParent[h] = st.root
		st.hubDirty.Set(int(h))
	} else if layout.Owner(st.root) == st.r.ID {
		li := layout.LocalIdx(st.root)
		st.lDist[li] = 0
		st.lParent[li] = st.root
		st.lDirty.Set(int(li))
		al = 1
	}
	st.activeL = comm.ControlSumInt64(st.r.World, al)
	st.bucket = 0
	return nil
}

// ckpt hands the writer the packed (distance bits, parent) arrays; the relax
// sets are rebuilt by beginIter, so their bitmap slots carry no load. The
// bucket index rides the VisitL scalar.
func (st *ssspState) ckpt() ckptSlices {
	return ckptSlices{
		hubF: st.hubDirty.Words(), hubV: st.relaxHub.Words(),
		lF: st.lDirty.Words(), lV: st.relaxL.Words(),
		pHub: st.hubPack, pL: st.lPack,
		activeL: st.activeL, visitL: st.bucket,
	}
}

func (st *ssspState) loadState(cs *checkpoint.State) {
	copy(st.hubDirty.Words(), cs.HubFrontier)
	copy(st.relaxHub.Words(), cs.HubVisited)
	copy(st.lDirty.Words(), cs.LFrontier)
	copy(st.relaxL.Words(), cs.LVisited)
	copy(st.hubPack, cs.ParentHub)
	copy(st.lPack, cs.ParentL)
	st.activeL = cs.ActiveL
	st.bucket = cs.VisitL
}

// beginIter carves this iteration's relax set out of the dirty sets (dirty
// vertices inside the current bucket), latching their base distances — the
// only ones a kernel reads — and latches the collective schedule. Hub
// decisions derive from replicated state and the L proxy is the globally
// agreed dirty count, so every rank latches identically.
func (st *ssspState) beginIter(it *IterTrace) {
	limit := float64(st.bucket+1) * st.delta
	st.relaxHub.Reset()
	st.hubDirty.ForEach(func(h int) {
		if st.hubDist[h] < limit {
			st.relaxHub.Set(h)
			st.hubBaseD[h] = st.hubDist[h]
		}
	})
	st.hubDirty.AndNot(st.relaxHub)
	st.relaxL.Reset()
	st.lDirty.ForEach(func(li int) {
		if st.lDist[li] < limit {
			st.relaxL.Set(li)
			st.lBaseD[li] = st.lDist[li]
		}
	})
	st.lDirty.AndNot(st.relaxL)

	it.ActiveE = int64(st.relaxHub.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.relaxHub.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	var act [partition.NumComponents]int64
	act[partition.CompEH2EH] = it.ActiveE + it.ActiveH
	act[partition.CompE2L] = it.ActiveE
	act[partition.CompH2L] = it.ActiveH
	act[partition.CompL2E] = it.ActiveL
	act[partition.CompL2H] = it.ActiveL
	act[partition.CompL2L] = it.ActiveL
	st.chooseSchedule(it, act, true, true)
	st.relaxBase = st.relaxations
	st.pendImproved, st.pendAL, st.pendNext = 0, 0, 0
}

func (st *ssspState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH, st.ehRelax)
		if err := st.syncDists(); firstErr == nil {
			firstErr = err
		}
	case 1:
		run(partition.CompE2L, st.e2lRelax)
		run(partition.CompH2L, st.h2lRelax)
		run(partition.CompL2E, st.l2eRelax)
		run(partition.CompL2H, st.l2hRelax)
		if err := st.syncDists(); firstErr == nil {
			firstErr = err
		}
	case 2:
		run(partition.CompL2L, st.l2lRelax)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// epilogue runs the agreement pair: the sum-allreduce carries this rank's
// successful relaxations of the iteration (zero everywhere exactly when no
// distance improved anywhere: a sync only spreads an improvement some rank's
// lowerHub made), the byte feedback and the global dirty-L count; the
// max-allreduce (negated) agrees on the smallest bucket holding a dirty vertex.
// Both collectives run unconditionally so the schedule matches on every rank.
func (st *ssspState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	next := int64(math.MaxInt64)
	bucketOf := func(d float64) {
		if !math.IsInf(d, 1) {
			if b := int64(d / st.delta); b < next {
				next = b
			}
		}
	}
	st.hubDirty.ForEach(func(h int) { bucketOf(st.hubDist[h]) })
	st.lDirty.ForEach(func(li int) { bucketOf(st.lDist[li]) })
	iterBytes := commBytes(st.rec) - st.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(st.r.World,
		[]int64{st.relaxations - st.relaxBase, iterBytes, int64(st.lDirty.Count())})
	neg := []int64{-next}
	err2 := comm.AllreduceMaxInt64(st.r.World, neg)
	if err == nil {
		st.pendImproved = sums[0]
		st.lastIterBytes = sums[1]
		st.pendAL = sums[2]
	}
	if err2 == nil {
		st.pendNext = -neg[0]
	}
	if err != nil {
		return err
	}
	return err2
}

// endIter commits the agreed counts. A quiescent iteration (no improvement
// anywhere) either converges — nothing left dirty — or advances the bucket to
// the agreed next occupied one; remaining dirty vertices all sit past the
// current limit, so the bucket strictly advances.
func (st *ssspState) endIter(it *IterTrace) bool {
	st.activeL = st.pendAL
	if st.pendImproved == 0 {
		if st.pendNext == math.MaxInt64 {
			return true
		}
		st.bucket = st.pendNext
	}
	return false
}

func (st *ssspState) finalize() error { return nil }

func (st *ssspState) snapshot(g int) {
	s := &st.snaps[g]
	snapFloat64(&s.hubDist, st.hubDist)
	snapFloat64(&s.lDist, st.lDist)
	snapInt64(&s.hubParent, st.hubParent)
	snapInt64(&s.lParent, st.lParent)
	snapWords(&s.hubDirty, st.hubDirty)
	snapWords(&s.lDirty, st.lDirty)
	s.relaxations = st.relaxations
}

func (st *ssspState) restore(g int) {
	s := &st.snaps[g]
	st.scr.touched.clear() // every step starts and ends with it empty
	copy(st.hubDist, s.hubDist)
	copy(st.lDist, s.lDist)
	copy(st.hubParent, s.hubParent)
	copy(st.lParent, s.lParent)
	copy(st.hubDirty.Words(), s.hubDirty)
	copy(st.lDirty.Words(), s.lDirty)
	st.relaxations = s.relaxations
}

func (st *ssspState) lowerHub(h int32, nd float64, parent int64) {
	if nd < st.hubDist[h] {
		st.hubDist[h] = nd
		st.hubParent[h] = parent
		st.scr.touched.add(h)
		st.relaxations++
	}
}

func (st *ssspState) lowerL(li int32, nd float64, parent int64) {
	if nd < st.lDist[li] {
		st.lDist[li] = nd
		st.lParent[li] = parent
		st.lDirty.Set(int(li))
		st.relaxations++
	}
}

// syncDists min-merges the hub (distance, parent) pairs improved since the
// last sync column-then-row with a deterministic fold (smaller distance wins;
// equal distance takes the larger parent), the SSSP analogue of the hub-bitmap
// sync, and re-marks every hub improved anywhere as dirty. A replica the fold
// changes does not count a relaxation: the rank whose lowerHub found the
// improvement already did.
func (st *ssspState) syncDists() error {
	t := &st.scr.touched
	err := syncTouched(&st.driver, "dist_sync", &st.scr.distRecs,
		func(h int32) distMsg { return distMsg{To: int64(h), Dist: st.hubDist[h], Parent: st.hubParent[h]} },
		func(m distMsg) (int32, bool) {
			h := int32(m.To)
			better := m.Dist < st.hubDist[h] || (m.Dist == st.hubDist[h] && m.Parent > st.hubParent[h])
			if better {
				st.hubDist[h], st.hubParent[h] = m.Dist, m.Parent
			}
			return h, better
		})
	for _, h := range t.list {
		st.hubDirty.Set(int(h))
	}
	t.clear()
	return err
}

// ehRelax: in-bucket source hubs relax destination hubs over this rank's 2D
// core-subgraph block (weights from original IDs); local, merged by the sync.
func (st *ssspState) ehRelax() (int64, error) {
	push := &st.rg.EHPush
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, src := range push.IDs {
		if !st.relaxHub.Test(int(src)) {
			continue
		}
		du := st.hubBaseD[src]
		u := orig[src]
		for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			edges++
			st.lowerHub(dst, du+sssp.WeightOf(u, orig[dst], st.seed), u)
		}
	}
	return edges, nil
}

// e2lRelax: in-bucket E hubs relax owned L vertices locally.
func (st *ssspState) e2lRelax() (int64, error) {
	csr := &st.rg.EToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if !st.relaxHub.Test(int(hub)) {
			continue
		}
		du := st.hubBaseD[hub]
		u := orig[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			v := layout.GlobalOf(st.r.ID, li)
			st.lowerL(li, du+sssp.WeightOf(u, v, st.seed), u)
		}
	}
	return edges, nil
}

// h2lRelax: in-bucket H hubs in this rank's column block relax their L
// neighbors across the row. Dense messages carry (LIdx, dist, parent); the
// sparse arm ships each relaxation as an adjacent record pair.
func (st *ssspState) h2lRelax() (int64, error) {
	csr := &st.rg.HToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	mesh := st.e.Opt.Mesh
	sparse := st.sparse[partition.CompH2L]
	ups := st.scr.ups[:0]
	send := resetParts(&st.scr.distParts, mesh.Cols)
	var edges int64
	for i, hub := range csr.IDs {
		if !st.relaxHub.Test(int(hub)) {
			continue
		}
		du := st.hubBaseD[hub]
		u := orig[hub]
		adj := csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]]
		edges += int64(len(adj))
		for _, rem := range adj {
			v := layout.GlobalOf(mesh.RankAt(st.r.Row, int(rem.Col)), rem.LIdx)
			nd := du + sssp.WeightOf(u, v, st.seed)
			if sparse {
				ups = appendPair(ups, rem.Col, partition.CompH2L, int64(rem.LIdx), nd, u)
			} else {
				send[rem.Col] = append(send[rem.Col], distMsg{To: int64(rem.LIdx), Dist: nd, Parent: u})
			}
		}
	}
	if sparse {
		st.scr.ups = ups
		if st.batchRow {
			return edges, nil // parked for the L2H flush
		}
		return edges, st.flushSparse(st.r.RowC, st.applySparse)
	}
	recv, err := comm.Alltoallv(st.r.RowC, send)
	for _, part := range recv {
		for _, m := range part {
			st.lowerL(int32(m.To), m.Dist, m.Parent)
		}
	}
	return edges, err
}

// appendPair appends one relaxation as its adjacent (distance bits, parent)
// record pair.
func appendPair(ups []comm.SparseUpdate, dst int32, c partition.Component, off int64, nd float64, parent int64) []comm.SparseUpdate {
	return append(ups,
		comm.SparseUpdate{Dst: dst, Tag: int32(c), Off: off, Val: int64(math.Float64bits(nd))},
		comm.SparseUpdate{Dst: dst, Tag: int32(c), Off: off, Val: parent})
}

// applySparse re-zips a received flush's record pairs and applies them in
// place, in per-source order; the tag names the kernel, hence the addressing.
// Pairs keep their kernel's tag, so the H2L and L2H streams of a batched flush
// stay pair-aligned, and they lower disjoint state (L and hub distances), so
// their interleaving is immaterial.
func (st *ssspState) applySparse(out [][]comm.SparseUpdate) {
	layout := st.e.Part.Layout
	for _, us := range out {
		for i := 0; i+1 < len(us); i += 2 {
			off, nd, parent := us[i].Off, math.Float64frombits(uint64(us[i].Val)), us[i+1].Val
			switch partition.Component(us[i].Tag) {
			case partition.CompH2L:
				st.lowerL(int32(off), nd, parent)
			case partition.CompL2H:
				st.lowerHub(int32(off), nd, parent)
			default: // L2L: Off is the original vertex id
				st.lowerL(layout.LocalIdx(off), nd, parent)
			}
		}
	}
}

// l2eRelax: in-bucket owned L vertices relax E delegates locally.
func (st *ssspState) l2eRelax() (int64, error) {
	csr := &st.rg.LToE
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.lowerHub(hub, du+sssp.WeightOf(u, orig[hub], st.seed), u)
		}
	})
	return edges, nil
}

// l2hRelax: in-bucket owned L vertices message the row delegate of each H
// neighbor the relaxation would actually improve (the live check against the
// replicated distance saves the message and is identical on both exchange
// arms — nothing between L2E and here touches hub distances). On the batched
// row exchange the pairs join the H2L ones parked in the scratch and both ride
// one flush.
func (st *ssspState) l2hRelax() (int64, error) {
	csr := &st.rg.LToH
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	sparse := st.sparse[partition.CompL2H]
	ups := st.scr.ups
	if !st.batchRow {
		ups = ups[:0]
	}
	send := resetParts(&st.scr.distParts, mesh.Cols)
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			nd := du + sssp.WeightOf(u, orig[hub], st.seed)
			if nd >= st.hubDist[hub] {
				continue
			}
			col := int32(hubs.ColBlockOf(hub, mesh))
			if sparse {
				ups = appendPair(ups, col, partition.CompL2H, int64(hub), nd, u)
			} else {
				send[col] = append(send[col], distMsg{To: int64(hub), Dist: nd, Parent: u})
			}
		}
	})
	if sparse {
		st.scr.ups = ups
		return edges, st.flushSparse(st.r.RowC, st.applySparse)
	}
	recv, err := comm.Alltoallv(st.r.RowC, send)
	for _, part := range recv {
		for _, m := range part {
			st.lowerHub(int32(m.To), m.Dist, m.Parent)
		}
	}
	return edges, err
}

// l2lRelax: in-bucket owned L vertices relax their L neighbors at the
// owners; one world alltoallv, or paired sparse records on tail iterations.
func (st *ssspState) l2lRelax() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	sparse := st.sparse[partition.CompL2L]
	ups := st.scr.ups[:0]
	send := resetParts(&st.scr.distParts, layout.P)
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		adj := csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]]
		edges += int64(len(adj))
		for _, dst := range adj {
			nd := du + sssp.WeightOf(u, dst, st.seed)
			owner := layout.Owner(dst)
			if sparse {
				ups = appendPair(ups, int32(owner), partition.CompL2L, dst, nd, u)
			} else {
				send[owner] = append(send[owner], distMsg{To: dst, Dist: nd, Parent: u})
			}
		}
	})
	if sparse {
		st.scr.ups = ups
		return edges, st.flushSparse(st.r.World, st.applySparse)
	}
	recv, err := comm.Alltoallv(st.r.World, send)
	for _, part := range recv {
		for _, m := range part {
			st.lowerL(layout.LocalIdx(m.To), m.Dist, m.Parent)
		}
	}
	return edges, err
}

// writeResult assembles this rank's share of the global distance and parent
// arrays: its owned block as it stands, then the hubs whose original IDs it
// owns overlaid (hub state is identical on all ranks after the per-iteration
// syncs).
func (st *ssspState) writeResult(dist []float64, parent []int64) {
	lo := st.e.Part.Layout.GlobalOf(st.r.ID, 0)
	dBlk, pBlk := ownedSeg(st.e, st.r.ID, dist), ownedSeg(st.e, st.r.ID, parent)
	copy(dBlk, st.lDist)
	copy(pBlk, st.lParent)
	for _, h := range st.e.hubsAt[st.r.ID] {
		i := st.e.Part.Hubs.Orig[h] - lo
		dBlk[i], pBlk[i] = st.hubDist[h], st.hubParent[h]
	}
}
