package core

import (
	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
)

// rankState is the per-rank BFS working set: the workload implementation the
// shared driver loop (workload.go) runs for Engine.Run.
//
// Hub (E and H) state is delegated: every rank holds full hubFrontier and
// hubVisited bitmaps over the K hubs, kept coherent by column+row
// allreduce-OR after each hub-activating sub-iteration. hubNew accumulates
// this rank's not-yet-synchronized activations; hubIter accumulates all hubs
// activated in the current iteration (the next hub frontier). L state is
// owner-local only.
type rankState struct {
	driver

	root int64

	k          int // hub count
	numE, numL int64

	hubFrontier *bitmap.Bitmap // replicated: current sources
	hubVisited  *bitmap.Bitmap // replicated: visited as of last sync
	hubNew      *bitmap.Bitmap // local activations since last sync
	hubIter     *bitmap.Bitmap // all activations this iteration (synced)
	parentHub   []int64        // local delegate parent array, reduced at the end

	lFrontier *bitmap.Bitmap // owner-local: current L sources
	lVisited  *bitmap.Bitmap
	lNew      *bitmap.Bitmap
	parentL   []int64

	// scratch buffers reused across iterations
	rowFrontier   *bitmap.Bitmap // row-wide L frontier for L2H pull
	worldFrontier *bitmap.Bitmap // world-wide L frontier for L2L pull
	scr           *rankScratch   // the engine's buffers for this rank, reused across runs

	// cached active counts, recomputed after each hub sync / L update
	activeL int64
	visitL  int64

	// pendNewHubs/pendAL stage the epilogue's agreed global counts between
	// step 3 and endIter (committed only after the iteration passes the vote).
	pendNewHubs, pendAL int64

	snaps [numSteps]iterSnapshot
}

// One iteration is four steps, each ending at a consistent collective
// boundary so a retry can re-enter at the lowest globally failed step,
// short-circuiting everything that already completed cleanly on every rank:
//
//	step 0: EH2EH + hub sync
//	step 1: E2L, H2L, L2E, L2H + hub sync
//	step 2: L2L
//	step 3: epilogue — frontier advance, optional immediate parent
//	        reduction, and the global active-L allreduce
const numSteps = 4

// drainBit is the iteration vote's graceful-drain flag, carried in the same
// OR-word as the failed-step mask (word 0). Bit 63 can never collide with a
// step index, and the vote strips it before any step-mask inspection.
const drainBit uint64 = 1 << 63

// iterSnapshot captures the state a step needs to be re-executed after a
// collective failure: every frontier/visited bitmap plus the cached global
// counts. The parent arrays are deliberately NOT captured — parent updates are
// monotone (a slot is written at most once per discovery, always with a valid
// BFS parent at the discovering level), so any write a failed attempt left
// behind is either re-performed identically by the retry or is already a
// correct parent for that vertex.
//
// The stats recorder is captured by the driver alongside this snapshot
// (driver.recSnaps): a retry re-enters mid-iteration and re-observes the
// re-executed kernels, so the failed attempt's observations must not stay in
// the aggregates. Trace spans are deliberately NOT rolled back — the timeline
// shows what actually ran, with failed attempts distinguished by their
// Attempt field.
type iterSnapshot struct {
	hubFrontier, hubVisited, hubNew, hubIter []uint64
	lFrontier, lVisited, lNew                []uint64
	activeL, visitL                          int64
}

// lRowMasks are one rank's "row is non-empty" word masks over its owned L
// block, one per L-keyed CSR. They are derived from the rank graph at engine
// construction and kept beside it rather than in it, so the checkpoint graph
// tier's format does not change.
type lRowMasks struct{ toE, toH, toL []uint64 }

// rowMask marks the rows of a dense CSR row-pointer array that hold at least
// one edge, as the words of an n-bit bitmap.
func rowMask(ptr []int64, n int) []uint64 {
	has := bitmap.New(n)
	for li := 0; li+1 < len(ptr); li++ {
		if ptr[li] != ptr[li+1] {
			has.Set(li)
		}
	}
	return has.Words()
}

// rankScratch holds one rank's kernel buffers on the engine, so what one
// iteration or run grew the next reuses: every kernel re-slices to [:0]
// before filling. Reuse right after a collective returns is safe because
// receivers copy a sender's buffer before the collective's closing barrier.
// The planes of a batch share their rank's scratch; they run one at a time.
type rankScratch struct {
	active   []int32 // ehPush: active source positions
	ups      []comm.SparseUpdate
	lParts   [][]lMsg // dense send buffers, and the sparse paths' receive reshapes
	hubParts [][]hubMsg
	l2lParts [][]l2lMsg
}

// resetParts returns *buf resized to n empty parts, each keeping its capacity.
func resetParts[T any](buf *[][]T, n int) [][]T {
	for len(*buf) < n {
		*buf = append(*buf, nil)
	}
	parts := (*buf)[:n]
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	return parts
}

func snapWords(dst *[]uint64, src *bitmap.Bitmap) {
	w := src.Words()
	if cap(*dst) < len(w) {
		*dst = make([]uint64, len(w))
	}
	*dst = (*dst)[:len(w)]
	copy(*dst, w)
}

func (st *rankState) snapshot(g int) {
	s := &st.snaps[g]
	snapWords(&s.hubFrontier, st.hubFrontier)
	snapWords(&s.hubVisited, st.hubVisited)
	snapWords(&s.hubNew, st.hubNew)
	snapWords(&s.hubIter, st.hubIter)
	snapWords(&s.lFrontier, st.lFrontier)
	snapWords(&s.lVisited, st.lVisited)
	snapWords(&s.lNew, st.lNew)
	s.activeL = st.activeL
	s.visitL = st.visitL
}

func (st *rankState) restore(g int) {
	s := &st.snaps[g]
	copy(st.hubFrontier.Words(), s.hubFrontier)
	copy(st.hubVisited.Words(), s.hubVisited)
	copy(st.hubNew.Words(), s.hubNew)
	copy(st.hubIter.Words(), s.hubIter)
	copy(st.lFrontier.Words(), s.lFrontier)
	copy(st.lVisited.Words(), s.lVisited)
	copy(st.lNew.Words(), s.lNew)
	st.activeL = s.activeL
	st.visitL = s.visitL
}

func newRankState(e *Engine, r *comm.Rank, root int64) *rankState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &rankState{
		driver:      newDriver(e, r, e.Opt.MaxIterations),
		root:        root,
		k:           k,
		numE:        int64(e.Part.Hubs.NumE),
		numL:        e.Part.Layout.N - int64(k),
		hubFrontier: bitmap.New(k),
		hubVisited:  bitmap.New(k),
		hubNew:      bitmap.New(k),
		hubIter:     bitmap.New(k),
		parentHub:   make([]int64, k),
		lFrontier:   bitmap.New(per),
		lVisited:    bitmap.New(per),
		lNew:        bitmap.New(per),
		parentL:     make([]int64, per),
		scr:         &e.scratch[r.ID],
	}
	for i := range st.parentHub {
		st.parentHub[i] = -1
	}
	for i := range st.parentL {
		st.parentL[i] = -1
	}
	return st
}

func (st *rankState) drv() *driver { return &st.driver }

// bootstrap seeds the fresh-start state: the root in its frontier, then the
// global L counts for direction decisions. Bootstrap rides the control plane:
// there is no prior consistent state to retry from.
func (st *rankState) bootstrap() error {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	root := st.root
	if h, ok := hubs.HubOf(root); ok {
		st.hubFrontier.Set(int(h))
		st.hubVisited.Set(int(h))
		st.parentHub[h] = root
	} else if layout.Owner(root) == st.r.ID {
		li := layout.LocalIdx(root)
		st.lFrontier.Set(int(li))
		st.lVisited.Set(int(li))
		st.parentL[li] = root
		st.activeL = 1
		st.visitL = 1
	}
	st.activeL = comm.ControlSumInt64(st.r.World, st.activeL)
	st.visitL = comm.ControlSumInt64(st.r.World, st.visitL)
	return nil
}

// ckpt exposes the BFS checkpoint geometry: frontier/visited bitmaps plus
// both parent arrays. hubNew/hubIter/lNew are all empty at every capture
// point, so they are not part of the on-disk state.
func (st *rankState) ckpt() ckptSlices {
	return ckptSlices{
		hubF: st.hubFrontier.Words(), hubV: st.hubVisited.Words(),
		lF: st.lFrontier.Words(), lV: st.lVisited.Words(),
		pHub: st.parentHub, pL: st.parentL,
		activeL: st.activeL, visitL: st.visitL,
	}
}

func (st *rankState) loadState(cs *checkpoint.State) {
	copy(st.hubFrontier.Words(), cs.HubFrontier)
	copy(st.hubVisited.Words(), cs.HubVisited)
	copy(st.lFrontier.Words(), cs.LFrontier)
	copy(st.lVisited.Words(), cs.LVisited)
	copy(st.parentHub, cs.ParentHub)
	copy(st.parentL, cs.ParentL)
	st.activeL = cs.ActiveL
	st.visitL = cs.VisitL
}

// beginIter fills the frontier composition and latches the iteration's
// direction and sparse choices (chooseDirections), which retries keep.
func (st *rankState) beginIter(it *IterTrace) {
	it.ActiveE = int64(st.hubFrontier.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.hubFrontier.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	st.chooseDirections(it)
	st.pendNewHubs, st.pendAL = 0, 0
}

func (st *rankState) step(g int, it *IterTrace) error {
	return st.runStep(g, it.Directions, &st.pendNewHubs, &st.pendAL)
}

// endIter commits the epilogue's agreed counts; the run converges when no
// hub and no L vertex was newly discovered.
func (st *rankState) endIter(it *IterTrace) bool {
	st.activeL = st.pendAL
	st.visitL += st.pendAL
	return st.pendNewHubs+st.pendAL == 0
}

// finalize is the delayed reduction of the delegated parent array
// (Section 5): one world-wide max-reduce after the run instead of
// per-iteration traffic.
func (st *rankState) finalize() error {
	return st.reduceParents()
}

// reduceParents max-reduces the delegated parent array across all ranks.
func (st *rankState) reduceParents() error {
	return reduceMaxParents(&st.driver, st.parentHub)
}

// runStep executes one of the iteration's four steps. Kernels run in
// hub-first order, syncing delegated hub state after each group of
// hub-activating kernels so later sub-iterations see the latest visited sets
// (Section 4.2). Skipped sub-iterations are elided entirely — including their
// collectives, which is safe because the skip decision derives from globally
// consistent counts. A collective error inside one kernel does NOT
// short-circuit the step: detection is symmetric only within the failing
// communicator (one column's alltoallv can fail while the others succeed), so
// every rank must keep executing the identical per-communicator collective
// schedule to stay in rendezvous lockstep. The first error is collected and
// resolved globally by the caller's control-plane vote.
func (st *rankState) runStep(g int, dirs [partition.NumComponents]stats.Direction, newHubs, al *int64) error {
	var firstErr error
	run := func(c partition.Component, push, pull func() (int64, error)) {
		err := st.runComp(c, dirs[c], func() (int64, error) {
			if dirs[c] == stats.DirPush {
				return push()
			}
			return pull()
		})
		if firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		// EH2EH (hub -> hub), then sync.
		ehPull := st.ehPull
		switch {
		case st.e.Opt.SegmentAdaptive:
			ehPull = st.ehPullAdaptive
		case st.e.Opt.Segmented:
			ehPull = st.ehPullSegmented
		}
		run(partition.CompEH2EH, st.ehPush, ehPull)
		// EH2EH is the only kernel of this step that can set hubNew, and the
		// previous sync left hubNew empty — when it was skipped the allreduce
		// pair would carry all-zero words, so elide it too. The skip derives
		// from the same globally consistent counts as the direction choice,
		// so every rank elides the same collectives.
		if dirs[partition.CompEH2EH] != stats.DirSkip {
			if err := st.syncHubs(); firstErr == nil {
				firstErr = err
			}
		}
	case 1:
		// E2L and H2L (hub -> L), then L2E and L2H (L -> hub), then sync.
		// A retry re-enters here with a stale batch buffer from the failed
		// attempt; the re-executed kernels regenerate every update.
		st.pendRow = st.pendRow[:0]
		run(partition.CompE2L, st.e2lPush, st.e2lPull)
		run(partition.CompH2L, st.h2lPush, st.h2lPull)
		run(partition.CompL2E, st.l2ePush, st.l2ePull)
		run(partition.CompL2H, st.l2hPush, st.l2hPull)
		// Only the L->hub kernels (L2E, L2H) set hubNew here — E2L and H2L
		// write lNew. When both were skipped the hub sync is an all-zero
		// exchange; elide it, same globally consistent reasoning as step 0.
		if dirs[partition.CompL2E] != stats.DirSkip || dirs[partition.CompL2H] != stats.DirSkip {
			if err := st.syncHubs(); firstErr == nil {
				firstErr = err
			}
		}
	case 2:
		run(partition.CompL2L, st.l2lPush, st.l2lPull)
	case 3:
		// Epilogue: advance frontiers and agree on the global L count.
		st.r.SetTag(TagEpilogue)
		st.hubFrontier.CopyFrom(st.hubIter)
		st.hubIter.Reset()
		st.lFrontier.CopyFrom(st.lNew)
		st.lVisited.Or(st.lNew)
		st.lNew.Reset()
		if st.e.Opt.ImmediateParentReduction {
			// The traditional scheme: reconcile delegate parents every
			// iteration. Correctness-neutral but pays a world-wide K-element
			// reduce per iteration — the traffic the paper's delayed
			// reduction eliminates.
			st.r.SetTag(TagReduce)
			if err := st.reduceParents(); firstErr == nil {
				firstErr = err
			}
			st.r.SetTag(TagEpilogue)
		}
		*newHubs = int64(st.hubFrontier.Count())
		// One pair-allreduce agrees on the global active-L count and the
		// iteration's observed data-plane bytes (the recorder delta since
		// iteration start, i.e. kernel + sync + reduce traffic; the epilogue
		// collective itself is not recorder-observed). The byte total feeds
		// the next iteration's dense-vs-sparse choice; summing it globally
		// keeps the choice identical on every rank. Committed only on
		// success, so a retried epilogue cannot leave ranks disagreeing.
		iterBytes := commBytes(st.rec) - st.iterBytesBase
		sums, err := comm.AllreduceSumInt64s(st.r.World,
			[]int64{int64(st.lFrontier.Count()), iterBytes})
		if firstErr == nil {
			firstErr = err
		}
		if err == nil {
			*al = sums[0]
			st.lastIterBytes = sums[1]
		}
	}
	return firstErr
}

// syncHubs merges local hub activations globally: allreduce-OR down the
// column then across the row reproduces the paper's delegation traffic
// pattern (E and H state moves only on column and row links), after which
// hubNew's contents are globally agreed and folded into visited state.
func (st *rankState) syncHubs() error {
	err := syncHubWords(&st.driver, st.hubNew.Words(), "hub_sync")
	// hubNew now holds the union of all ranks' new activations (it may
	// include hubs another rank also activated; visited filtering below is
	// idempotent).
	st.hubNew.AndNot(st.hubVisited)
	st.hubIter.Or(st.hubNew)
	st.hubVisited.Or(st.hubNew)
	st.hubNew.Reset()
	return err
}

// assembleOwned fills blk, this rank's owned block of one query's global
// parent array, and returns the degree sum of the block's reached vertices,
// both in one pass over the block. parentL already holds -1 for every
// unreached L vertex and for the hub positions (hubs are never L
// destinations), so it lays the block down as it stands; the hubs whose
// original IDs the rank owns are then overlaid from parentHub (identical on
// all ranks after the delayed reduction).
func (st *rankState) assembleOwned(blk []int64) int64 {
	hubs := st.e.Part.Hubs
	lo := st.e.Part.Layout.GlobalOf(st.r.ID, 0)
	deg := ownedSeg(st.e, st.r.ID, st.e.Part.Degrees)
	var sum int64
	for i, p := range st.parentL[:len(blk)] {
		blk[i] = p
		sum += deg[i] &^ (p >> 63) // counts deg[i] only when p >= 0; see reachedDegrees
	}
	for _, h := range st.e.hubsAt[st.r.ID] {
		p := st.parentHub[h]
		blk[hubs.Orig[h]-lo] = p
		sum += hubs.Deg[h] &^ (p >> 63)
	}
	return sum
}
