package core

import (
	"repro/internal/bitmap"
	"repro/internal/partition"
	"repro/internal/stats"
)

// rankState is one query's plane of the BFS workload (multisource.go) on one
// rank: its bitmaps, parent arrays and counters, its kernels, message
// generators and apply routines, and its direction choice. It issues no
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
// latched (the base runs none it skipped). A remote push generates its run
// into the base's shared send buffers and ships through the base; a remote
// pull probes the frontier the workload gathered for every pulling plane.
func (st *rankState) kernels() [partition.NumComponents]func() (int64, error) {
	local := func(c partition.Component, push, pull func() int64) func() (int64, error) {
		return func() (int64, error) {
			if st.sched.Directions[c] == stats.DirPush {
				return push(), nil
			}
			return pull(), nil
		}
	}
	// Method values bound once, not per call: ship keeps the applies.
	b := &st.valueBase
	applyL, applyHub, applyL2L := st.applyLMsgs, st.applyHubMsgs, st.applyL2L
	l2hScan, l2lScan, forward := st.l2hPullScan, st.l2lPullScan, st.forwardL2L
	return [partition.NumComponents]func() (int64, error){
		local(partition.CompEH2EH, st.ehPush, st.ehPull),
		local(partition.CompE2L, st.e2lPush, st.e2lPull),
		func() (int64, error) {
			if st.sched.Directions[partition.CompH2L] == stats.DirPull {
				return st.h2lPull(), nil
			}
			send := sendParts(b, partition.CompH2L, &st.scr.pushParts, st.e.Opt.Mesh.Cols)
			edges := st.h2lPush(send)
			return edges, ship(b, partition.CompH2L, send, applyL, nil)
		},
		local(partition.CompL2E, st.l2ePush, st.l2ePull),
		func() (int64, error) {
			if st.sched.Directions[partition.CompL2H] == stats.DirPull {
				return st.pull(partition.CompL2H, l2hScan)
			}
			send := sendParts(b, partition.CompL2H, &st.scr.pushParts, st.e.Opt.Mesh.Cols)
			edges := st.l2hPush(send)
			return edges, ship(b, partition.CompL2H, send, applyHub, nil)
		},
		func() (int64, error) {
			if st.sched.Directions[partition.CompL2L] == stats.DirPull {
				return st.pull(partition.CompL2L, l2lScan)
			}
			fanout, fwd := st.e.Part.Layout.P, (func([][]pushMsg, int) ([][]pushMsg, error))(nil)
			if st.e.Opt.Hierarchical {
				fanout, fwd = st.e.Opt.Mesh.Rows, forward
			}
			send := sendParts(b, partition.CompL2L, &st.scr.pushParts, fanout)
			edges := st.l2lPush(send)
			return edges, ship(b, partition.CompL2L, send, applyL2L, fwd)
		},
	}
}
