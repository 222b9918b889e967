package core

import (
	"repro/internal/bitmap"
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
	valueBase

	hubLabel, hubBase []int64
	lLabel, lBase     []int64

	hubDirty, lDirty *bitmap.Bitmap // lowered last iteration: this iteration's sources
	hubNext, lNext   *bitmap.Bitmap // staged: lowered this iteration

	activeL             int64 // global count of dirty L vertices
	pendChanged, pendAL int64 // epilogue's agreed counts, committed by endIter
}

// newWCCState declares the dirty and staged sets, the live labels and the
// dirty-L count, which is also all a retried step must roll back: the base
// arrays are latched once per iteration and never written by steps.
func newWCCState(e *Engine, r *comm.Rank) *wccState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &wccState{
		valueBase: newValueBase(e, r),
		hubLabel:  make([]int64, k),
		hubBase:   make([]int64, k),
		lLabel:    make([]int64, per),
		lBase:     make([]int64, per),
		hubDirty:  bitmap.New(k),
		hubNext:   bitmap.New(k),
		lDirty:    bitmap.New(per),
		lNext:     bitmap.New(per),
	}
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: [partition.NumComponents]func() (int64, error){
			st.ehProp, st.e2lProp, st.h2lProp, st.l2eProp, st.l2hProp, st.l2lProp}}},
		hubSync:  st.syncLabels,
		epilogue: st.epilogue,
		hubF:     st.hubDirty.Words(), hubV: st.hubNext.Words(),
		lF: st.lDirty.Words(), lV: st.lNext.Words(),
		pHub: st.hubLabel, pL: st.lLabel,
		activeL: &st.activeL,
	})
	return st
}

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

// beginIter latches the iteration's collective schedule and base labels. The
// active counts derive from replicated hub dirty state plus the globally
// agreed L count, so every rank latches identically.
func (st *wccState) beginIter(it *IterTrace) {
	st.frontierSchedule(it, st.hubDirty, st.activeL)
	latch(st.hubBase, st.hubLabel, st.hubDirty)
	latch(st.lBase, st.lLabel, st.lDirty)
	st.pendChanged, st.pendAL = 0, 0
}

// epilogue agrees on the global change count. The staged hub set is
// replicated, so each lowered hub is counted by the owner of its original
// vertex only; the agreement also carries the next iteration's global
// dirty-L count.
func (st *wccState) epilogue() error {
	layout := st.e.Part.Layout
	orig := st.e.Part.Hubs.Orig
	var changed int64
	st.hubNext.ForEach(func(h int) {
		if layout.Owner(orig[h]) == st.r.ID {
			changed++
		}
	})
	lChanged := int64(st.lNext.Count())
	var err error
	st.pendChanged, st.pendAL, err = st.agree(changed+lChanged, lChanged)
	return err
}

// endIter swaps the staged dirty sets in; convergence is the zero-change
// round, which counts toward Iterations.
func (st *wccState) endIter(it *IterTrace) bool {
	st.hubDirty.CopyFrom(st.hubNext)
	st.hubNext.Reset()
	st.lDirty.CopyFrom(st.lNext)
	st.lNext.Reset()
	st.activeL = st.pendAL
	return st.pendChanged == 0
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
	err := syncTouched(&st.valueBase, "label_sync", &st.scr.hubRecs,
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
	return hubRows(push.IDs, push.Ptr, push.Adj, st.hubDirty, func(src int32, row []int32) {
		lbl := st.hubBase[src]
		for _, dst := range row {
			st.lowerHub(dst, lbl)
		}
	}), nil
}

// e2lProp: dirty E hubs lower owned L labels locally (E is delegated
// everywhere).
func (st *wccState) e2lProp() (int64, error) {
	csr := &st.rg.EToL
	return hubRows(csr.IDs, csr.Ptr, csr.Adj, st.hubDirty, func(hub int32, row []int32) {
		lbl := st.hubBase[hub]
		for _, li := range row {
			st.lowerL(li, lbl)
		}
	}), nil
}

// h2lProp: dirty H hubs in this rank's column block message their L
// neighbors' owners along the row (lMsg reuses Parent as the label payload).
func (st *wccState) h2lProp() (int64, error) {
	csr := &st.rg.HToL
	send := sendParts(&st.valueBase, partition.CompH2L, &st.scr.lParts, st.e.Opt.Mesh.Cols)
	edges := hubRows(csr.IDs, csr.Ptr, csr.Adj, st.hubDirty, func(hub int32, row []partition.RemoteL) {
		lbl := st.hubBase[hub]
		for _, rem := range row {
			send[rem.Col] = append(send[rem.Col], lMsg{LIdx: rem.LIdx, Parent: lbl})
		}
	})
	return edges, ship(&st.valueBase, partition.CompH2L, send, func(recv [][]lMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerL(m.LIdx, m.Parent)
			}
		}
	}, nil)
}

// l2eProp: dirty owned L vertices lower E delegate labels locally.
func (st *wccState) l2eProp() (int64, error) {
	csr := &st.rg.LToE
	return lRows(csr.Ptr, csr.Adj, st.lDirty, func(li int, row []int32) {
		lbl := st.lBase[li]
		for _, hub := range row {
			st.lowerHub(hub, lbl)
		}
	}), nil
}

// l2hProp: dirty owned L vertices message the row delegate of each H
// neighbor whose replicated label is not already as low (delegation knowledge
// saves the message — the live check is identical on the dense and sparse
// arms because nothing between L2E and here touches hub labels). On the
// batched row exchange H2L's applies wait for this kernel's flush; deferring
// them is safe because the kernels in between read only base labels and hub
// labels, never live L labels.
func (st *wccState) l2hProp() (int64, error) {
	csr := &st.rg.LToH
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	send := sendParts(&st.valueBase, partition.CompL2H, &st.scr.hubParts, mesh.Cols)
	edges := lRows(csr.Ptr, csr.Adj, st.lDirty, func(li int, row []int32) {
		lbl := st.lBase[li]
		for _, hub := range row {
			if lbl < st.hubLabel[hub] {
				col := hubs.ColBlockOf(hub, mesh)
				send[col] = append(send[col], hubMsg{Hub: hub, Parent: lbl})
			}
		}
	})
	return edges, ship(&st.valueBase, partition.CompL2H, send, func(recv [][]hubMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerHub(m.Hub, m.Parent)
			}
		}
	}, nil)
}

// l2lProp: dirty owned L vertices message their L neighbors' owners over the
// world (l2lMsg addresses the original destination ID).
func (st *wccState) l2lProp() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := sendParts(&st.valueBase, partition.CompL2L, &st.scr.l2lParts, layout.P)
	edges := lRows(csr.Ptr, csr.Adj, st.lDirty, func(li int, row []int64) {
		lbl := st.lBase[li]
		for _, dst := range row {
			owner := layout.Owner(dst)
			send[owner] = append(send[owner], l2lMsg{Dst: dst, Parent: lbl})
		}
	})
	return edges, ship(&st.valueBase, partition.CompL2L, send, func(recv [][]l2lMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerL(layout.LocalIdx(m.Dst), m.Parent)
			}
		}
	}, nil)
}
