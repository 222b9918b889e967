package core

import (
	"repro/internal/bitmap"
	"repro/internal/comm"
)

// wccState is connected components on the engine's fast path: min-label
// propagation over the six 1.5D components. Hub labels are delegated exactly
// like BFS hub state — replicated per rank and min-merged column-then-row
// after each hub-lowering step — while L labels live only at their owner.
//
// The per-iteration discipline: beginIter latches base copies of the dirty
// vertices' labels; the push reads source labels from the base (so the
// batched row exchange can defer its applies without changing any kernel's
// input) and min-lowers live labels, staging each lowered vertex in the next
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
	// The push min-lowers labels from the dirty sources' base labels.
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: pushKernels(&st.valueBase, &valuePush[int64]{
			hubSrc: st.hubDirty, lSrc: st.lDirty, hubIn: st.hubBase, lIn: st.lBase,
			hub: st.hubLabel, l: st.lLabel, lMark: st.lNext, touched: &st.scr.touched,
		})}},
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

// syncLabels min-merges the hub labels lowered since the last sync
// column-then-row, the label-carrying analogue of the BFS hub-bitmap sync, and
// stages every hub lowered anywhere for the next iteration.
func (st *wccState) syncLabels() error {
	t := &st.scr.touched
	err := syncTouched(&st.valueBase, "label_sync", &st.scr.hubRecs,
		func(h int32) pushMsg { return pushMsg{Dst: int64(h), Parent: st.hubLabel[h]} },
		func(m pushMsg) (int32, bool) {
			low := m.Parent < st.hubLabel[m.Dst]
			if low {
				st.hubLabel[m.Dst] = m.Parent
			}
			return int32(m.Dst), low
		})
	for _, h := range t.list {
		st.hubNext.Set(int(h))
	}
	t.clear()
	return err
}
