package core

import (
	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
)

// wccState is connected components on the engine's fast path: min-label
// propagation over the six 1.5D components. Hub labels are delegated exactly
// like BFS hub state — replicated per rank and min-merged column-then-row
// after each hub-lowering step — while L labels live only at their owner.
//
// The per-iteration discipline: beginIter latches base copies of the dirty
// vertices' labels; every kernel reads source labels from the base (so the
// batched row exchange can defer its applies without changing any kernel's
// input) and lowers live labels, staging each lowered vertex in the next
// dirty sets as it goes (L at the lowering, hubs at the sync that makes the
// lowering global); the epilogue only counts them and agrees on the global
// change count. Min-folding is order-independent, so the dense and sparse
// exchange arms produce bit-identical label streams.
type wccState struct {
	driver

	k    int
	numE int64

	hubLabel, hubBase []int64
	lLabel, lBase     []int64

	hubDirty, lDirty *bitmap.Bitmap // lowered last iteration: this iteration's sources
	hubNext, lNext   *bitmap.Bitmap // staged: lowered this iteration

	activeL             int64 // global count of dirty L vertices
	pendChanged, pendAL int64 // epilogue's agreed counts, committed by endIter

	snaps [numSteps]wccSnapshot
}

// wccSnapshot is the state a retried step must roll back: label lowering is
// not monotone across a failed collective (a partially merged sync can leave
// garbage), so both live label arrays are captured alongside the staged dirty
// sets. The base arrays are latched once per iteration and never written by
// steps, so they need no capture.
type wccSnapshot struct {
	hubLabel, lLabel []int64
	hubNext, lNext   []uint64
}

func newWCCState(e *Engine, r *comm.Rank) *wccState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	return &wccState{
		driver:   newWorkloadDriver(e, r),
		k:        k,
		numE:     int64(e.Part.Hubs.NumE),
		hubLabel: make([]int64, k),
		hubBase:  make([]int64, k),
		lLabel:   make([]int64, per),
		lBase:    make([]int64, per),
		hubDirty: bitmap.New(k),
		hubNext:  bitmap.New(k),
		lDirty:   bitmap.New(per),
		lNext:    bitmap.New(per),
	}
}

func (st *wccState) drv() *driver { return &st.driver }

// bootstrap seeds every vertex with its own original ID as label and marks
// everything dirty; the global dirty-L count rides the control plane.
func (st *wccState) bootstrap() error {
	layout := st.e.Part.Layout
	copy(st.hubLabel, st.e.Part.Hubs.Orig)
	st.hubDirty.Fill()
	for li := range st.lLabel {
		st.lLabel[li] = layout.GlobalOf(st.r.ID, int32(li))
	}
	for li := 0; li < st.rg.LocalN; li++ {
		st.lDirty.Set(li)
	}
	st.lDirty.AndNot(bitmap.FromWords(st.e.lRows[st.r.ID].isHub, st.lDirty.Len()))
	st.activeL = comm.ControlSumInt64(st.r.World, int64(st.lDirty.Count()))
	return nil
}

func (st *wccState) ckpt() ckptSlices {
	return ckptSlices{
		hubF: st.hubDirty.Words(), hubV: st.hubNext.Words(),
		lF: st.lDirty.Words(), lV: st.lNext.Words(),
		pHub: st.hubLabel, pL: st.lLabel,
		activeL: st.activeL, visitL: 0,
	}
}

func (st *wccState) loadState(cs *checkpoint.State) {
	copy(st.hubDirty.Words(), cs.HubFrontier)
	copy(st.hubNext.Words(), cs.HubVisited)
	copy(st.lDirty.Words(), cs.LFrontier)
	copy(st.lNext.Words(), cs.LVisited)
	copy(st.hubLabel, cs.ParentHub)
	copy(st.lLabel, cs.ParentL)
	st.activeL = cs.ActiveL
}

// beginIter latches the iteration's base labels and collective schedule. The
// active counts derive from replicated hub dirty state plus the globally
// agreed L count, so every rank latches identically.
func (st *wccState) beginIter(it *IterTrace) {
	it.ActiveE = int64(st.hubDirty.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.hubDirty.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	var act [partition.NumComponents]int64
	act[partition.CompEH2EH] = it.ActiveE + it.ActiveH
	act[partition.CompE2L] = it.ActiveE
	act[partition.CompH2L] = it.ActiveH
	act[partition.CompL2E] = it.ActiveL
	act[partition.CompL2H] = it.ActiveL
	act[partition.CompL2L] = it.ActiveL
	st.chooseSchedule(it, act, true, true)
	latch(st.hubBase, st.hubLabel, st.hubDirty)
	latch(st.lBase, st.lLabel, st.lDirty)
	st.pendChanged, st.pendAL = 0, 0
}

func (st *wccState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH, st.ehProp)
		if err := st.syncLabels(); firstErr == nil {
			firstErr = err
		}
	case 1:
		run(partition.CompE2L, st.e2lProp)
		run(partition.CompH2L, st.h2lProp)
		run(partition.CompL2E, st.l2eProp)
		run(partition.CompL2H, st.l2hProp)
		if err := st.syncLabels(); firstErr == nil {
			firstErr = err
		}
	case 2:
		run(partition.CompL2L, st.l2lProp)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// epilogue agrees on the global change count. The staged hub set is
// replicated, so each lowered hub is counted by the owner of its original
// vertex only; the allreduce triple also carries the byte feedback for the
// sparse tail and the next iteration's global dirty-L count.
func (st *wccState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	layout := st.e.Part.Layout
	orig := st.e.Part.Hubs.Orig
	var changed int64
	st.hubNext.ForEach(func(h int) {
		if layout.Owner(orig[h]) == st.r.ID {
			changed++
		}
	})
	lChanged := int64(st.lNext.Count())
	iterBytes := commBytes(st.rec) - st.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(st.r.World,
		[]int64{changed + lChanged, iterBytes, lChanged})
	if err != nil {
		return err
	}
	st.pendChanged = sums[0]
	st.lastIterBytes = sums[1]
	st.pendAL = sums[2]
	return nil
}

// endIter swaps the staged dirty sets in; convergence is the zero-change
// round, which counts toward Iterations — the same semantics as the generic
// framework RunProgram.
func (st *wccState) endIter(it *IterTrace) bool {
	st.hubDirty.CopyFrom(st.hubNext)
	st.hubNext.Reset()
	st.lDirty.CopyFrom(st.lNext)
	st.lNext.Reset()
	st.activeL = st.pendAL
	return st.pendChanged == 0
}

// finalize is a no-op: labels are already globally consistent (hub labels by
// the per-iteration syncs, L labels owner-local).
func (st *wccState) finalize() error { return nil }

func (st *wccState) snapshot(g int) {
	s := &st.snaps[g]
	snapInt64(&s.hubLabel, st.hubLabel)
	snapInt64(&s.lLabel, st.lLabel)
	snapWords(&s.hubNext, st.hubNext)
	snapWords(&s.lNext, st.lNext)
}

func (st *wccState) restore(g int) {
	s := &st.snaps[g]
	st.scr.touched.clear() // every step starts and ends with it empty
	copy(st.hubLabel, s.hubLabel)
	copy(st.lLabel, s.lLabel)
	copy(st.hubNext.Words(), s.hubNext)
	copy(st.lNext.Words(), s.lNext)
}

func (st *wccState) lowerHub(h int32, lbl int64) {
	if lbl < st.hubLabel[h] {
		st.hubLabel[h] = lbl
		st.scr.touched.add(h)
	}
}

func (st *wccState) lowerL(li int32, lbl int64) {
	if lbl < st.lLabel[li] {
		st.lLabel[li] = lbl
		st.lNext.Set(int(li))
	}
}

// syncLabels min-merges the hub labels lowered since the last sync
// column-then-row, the label-carrying analogue of the BFS hub-bitmap sync, and
// stages every hub lowered anywhere for the next iteration.
func (st *wccState) syncLabels() error {
	t := &st.scr.touched
	err := syncTouched(&st.driver, "label_sync", &st.scr.hubRecs,
		func(h int32) hubMsg { return hubMsg{Hub: h, Parent: st.hubLabel[h]} },
		func(m hubMsg) (int32, bool) {
			low := m.Parent < st.hubLabel[m.Hub]
			if low {
				st.hubLabel[m.Hub] = m.Parent
			}
			return m.Hub, low
		})
	for _, h := range t.list {
		st.hubNext.Set(int(h))
	}
	t.clear()
	return err
}

// ehProp: dirty source hubs lower their destination hubs' replicated labels
// over this rank's 2D core-subgraph block; purely local, merged by the sync.
func (st *wccState) ehProp() (int64, error) {
	push := &st.rg.EHPush
	var edges int64
	for i, src := range push.IDs {
		if !st.hubDirty.Test(int(src)) {
			continue
		}
		lbl := st.hubBase[src]
		for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			edges++
			st.lowerHub(dst, lbl)
		}
	}
	return edges, nil
}

// e2lProp: dirty E hubs lower owned L labels locally (E is delegated
// everywhere).
func (st *wccState) e2lProp() (int64, error) {
	csr := &st.rg.EToL
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubDirty.Test(int(hub)) {
			continue
		}
		lbl := st.hubBase[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			st.lowerL(li, lbl)
		}
	}
	return edges, nil
}

// h2lProp: dirty H hubs in this rank's column block message their L
// neighbors' owners along the row; dense alltoallv or sparse triples (lMsg
// reuses Parent as the label payload).
func (st *wccState) h2lProp() (int64, error) {
	csr := &st.rg.HToL
	sparse := st.sparse[partition.CompH2L]
	ups := st.scr.ups[:0]
	send := resetParts(&st.scr.lParts, st.e.Opt.Mesh.Cols)
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubDirty.Test(int(hub)) {
			continue
		}
		lbl := st.hubBase[hub]
		adj := csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]]
		edges += int64(len(adj))
		for _, rem := range adj {
			if sparse {
				ups = append(ups, comm.SparseUpdate{Dst: rem.Col,
					Tag: int32(partition.CompH2L), Off: int64(rem.LIdx), Val: lbl})
			} else {
				send[rem.Col] = append(send[rem.Col], lMsg{LIdx: rem.LIdx, Parent: lbl})
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
			st.lowerL(m.LIdx, m.Parent)
		}
	}
	return edges, err
}

// applySparse applies a received sparse flush in place: the tag names the
// kernel, hence the addressing. Walking sources in member order gives each
// kernel's stream the order its dense exchange delivers, and the H2L and L2H
// streams of a batched flush lower disjoint state (L labels, hub labels), so
// their interleaving is immaterial.
func (st *wccState) applySparse(out [][]comm.SparseUpdate) {
	layout := st.e.Part.Layout
	for _, us := range out {
		for _, u := range us {
			switch partition.Component(u.Tag) {
			case partition.CompH2L:
				st.lowerL(int32(u.Off), u.Val)
			case partition.CompL2H:
				st.lowerHub(int32(u.Off), u.Val)
			default: // L2L: Off is the original vertex id
				st.lowerL(layout.LocalIdx(u.Off), u.Val)
			}
		}
	}
}

// l2eProp: dirty owned L vertices lower E delegate labels locally.
func (st *wccState) l2eProp() (int64, error) {
	csr := &st.rg.LToE
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.lowerHub(hub, lbl)
		}
	})
	return edges, nil
}

// l2hProp: dirty owned L vertices message the row delegate of each H
// neighbor whose replicated label is not already as low (delegation knowledge
// saves the message — the live check is identical on the dense and sparse
// arms because nothing between L2E and here touches hub labels). On the
// batched row exchange the updates join the H2L ones parked in the scratch and
// both ride one flush; deferring the H2L applies is safe because the kernels
// in between read only base labels and hub labels, never live L labels.
func (st *wccState) l2hProp() (int64, error) {
	csr := &st.rg.LToH
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	sparse := st.sparse[partition.CompL2H]
	ups := st.scr.ups
	if !st.batchRow {
		ups = ups[:0]
	}
	send := resetParts(&st.scr.hubParts, mesh.Cols)
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if lbl >= st.hubLabel[hub] {
				continue
			}
			col := hubs.ColBlockOf(hub, mesh)
			if sparse {
				ups = append(ups, comm.SparseUpdate{Dst: int32(col),
					Tag: int32(partition.CompL2H), Off: int64(hub), Val: lbl})
			} else {
				send[col] = append(send[col], hubMsg{Hub: hub, Parent: lbl})
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
			st.lowerHub(m.Hub, m.Parent)
		}
	}
	return edges, err
}

// l2lProp: dirty owned L vertices message their L neighbors' owners; one
// world alltoallv, or the sparse world allgather on tail iterations (Off
// carries the original destination ID).
func (st *wccState) l2lProp() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	sparse := st.sparse[partition.CompL2L]
	ups := st.scr.ups[:0]
	send := resetParts(&st.scr.l2lParts, layout.P)
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		adj := csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]]
		edges += int64(len(adj))
		for _, dst := range adj {
			owner := layout.Owner(dst)
			if sparse {
				ups = append(ups, comm.SparseUpdate{Dst: int32(owner),
					Tag: int32(partition.CompL2L), Off: dst, Val: lbl})
			} else {
				send[owner] = append(send[owner], l2lMsg{Dst: dst, Parent: lbl})
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
			st.lowerL(layout.LocalIdx(m.Dst), m.Parent)
		}
	}
	return edges, err
}

// writeResult assembles this rank's share of the global label array: its
// owned block as it stands, then the hubs whose original IDs it owns overlaid
// (hub labels are identical on all ranks after the per-iteration syncs).
func (st *wccState) writeResult(label []int64) {
	lo := st.e.Part.Layout.GlobalOf(st.r.ID, 0)
	blk := ownedSeg(st.e, st.r.ID, label)
	copy(blk, st.lLabel)
	for _, h := range st.e.hubsAt[st.r.ID] {
		blk[st.e.Part.Hubs.Orig[h]-lo] = st.hubLabel[h]
	}
}
