package core

import (
	"repro/internal/bitmap"
	"repro/internal/partition"
	"repro/internal/stats"
)

// rankState is one query's plane of the BFS workload (multisource.go) on one
// rank: its bitmaps, parent arrays and counters, its declared push and its
// pulls, and its direction choice. It issues no
// collective of its own and owns no runtime, recorder or snapshot — the
// workload base does, for all planes at once. It embeds its workload, so a
// plane's kernels reach the rank's base and scratch by promotion and
// observe on the rank's recorder and span stream.
//
// Hub (E and H) state is delegated: every rank holds full hubFrontier and
// hubVisited bitmaps over the K hubs, kept coherent by column+row
// allreduce-OR after each hub-activating sub-iteration. hubNew accumulates
// this rank's not-yet-synchronized activations; hubIter accumulates all hubs
// activated in the current iteration (the next hub frontier). L state is
// owner-local only. Every bitmap, parent array and counter is a window of the
// workload's stacked backings.
type rankState struct {
	*multiState

	qid    int // position in the batch
	root   int64
	target int64 // the target query's target; -1 for a full tree
	numL   int64
	// foundSlot is the target's found bit in the epilogue vector (-1: none).
	foundSlot int

	sched IterTrace // the iteration's latched directions and sparse choices

	hubFrontier *bitmap.Bitmap // replicated: current sources
	hubVisited  *bitmap.Bitmap // replicated: visited as of last sync
	hubNew      *bitmap.Bitmap // local activations since last sync
	hubIter     *bitmap.Bitmap // all activations this iteration (synced)
	parentHub   []int64        // local delegate parent array, reduced at the end

	lFrontier *bitmap.Bitmap // owner-local: current L sources
	lVisited  *bitmap.Bitmap
	lNew      *bitmap.Bitmap
	parentL   []int64

	// pull frontiers, filled by the workload's gathers
	rowFrontier   *bitmap.Bitmap // row-wide L frontier for L2H pull
	worldFrontier *bitmap.Bitmap // world-wide L frontier for L2L pull

	// activeL and visitL are the global active and visited L counts, doneIter
	// the absolute iteration the query converged at (-1 while it runs): the
	// plane's slots of the workload's checkpoint tail.
	activeL, visitL, doneIter *int64
}

// seesTarget reports whether this rank owns the plane's target and the plane
// has visited it; the epilogue sums it into the target's found bit.
func (st *rankState) seesTarget() bool {
	lay := st.e.Part.Layout
	if lay.Owner(st.target) != st.r.ID {
		return false
	}
	if h, ok := st.e.Part.Hubs.HubOf(st.target); ok {
		return st.hubVisited.Test(int(h))
	}
	return st.lVisited.Test(int(lay.LocalIdx(st.target)))
}

// targetParent is the target's parent as the target's owner rank holds it:
// a hub's from the reduced delegate array, an L vertex's from its owned slot.
func (st *rankState) targetParent() int64 {
	if h, ok := st.e.Part.Hubs.HubOf(st.target); ok {
		return st.parentHub[h]
	}
	return st.parentL[st.e.Part.Layout.LocalIdx(st.target)]
}

// kernels are the plane's six kernels, each pushing or pulling as the plane
// latched (the base runs none it skipped). The pushes are one declared claim
// push over the plane's bitmaps and parent windows (value.go), which routes,
// ships and applies them through the base; the pulls are hand-written
// (kernels.go), the remote ones probing the frontier the workload gathered
// for every pulling plane.
func (st *rankState) kernels() [partition.NumComponents]func() (int64, error) {
	claim := &valuePush[int64]{
		hubSrc: st.hubFrontier, lSrc: st.lFrontier,
		hub: st.parentHub, l: st.parentL, claim: true,
		hubSeen: st.hubVisited, lSeen: st.lVisited, hubMark: st.hubNew, lMark: st.lNew,
	}
	if st.e.Opt.Hierarchical {
		claim.fwd = st.forwardL2L
	}
	ks := pushKernels(&st.valueBase, claim)
	for c, push := range ks {
		ks[c] = func() (int64, error) {
			if st.sched.Directions[c] == stats.DirPush {
				return push()
			}
			return st.pullKernel(partition.Component(c))
		}
	}
	return ks
}

// pullKernel runs the plane's pull of component c.
func (st *rankState) pullKernel(c partition.Component) (int64, error) {
	switch c {
	case partition.CompEH2EH:
		return st.ehPull(), nil
	case partition.CompE2L:
		return st.e2lPull(), nil
	case partition.CompH2L:
		return st.h2lPull(), nil
	case partition.CompL2E:
		return st.l2ePull(), nil
	case partition.CompL2H:
		return st.pull(c, st.l2hPullScan)
	}
	return st.pull(c, st.l2lPullScan)
}
