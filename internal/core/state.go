package core

import (
	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
)

// rankState is one query's plane of the BFS workload (multisource.go) on one
// rank: its bitmaps, parent arrays, local kernels, message generators and
// apply routines, and its direction choice. It issues no collective and owns
// no driver, recorder or snapshot — the workload does, for all planes at
// once. The embedded driver is the workload's, so a plane's kernels observe
// on the rank's recorder and span stream.
//
// Hub (E and H) state is delegated: every rank holds full hubFrontier and
// hubVisited bitmaps over the K hubs, kept coherent by column+row
// allreduce-OR after each hub-activating sub-iteration. hubNew accumulates
// this rank's not-yet-synchronized activations; hubIter accumulates all hubs
// activated in the current iteration (the next hub frontier). L state is
// owner-local only. Every bitmap and parent array is a window of the
// workload's stacked backings.
type rankState struct {
	*driver

	qid     int // position in the batch
	root    int64
	qidArgs map[string]int64 // {"qid": qid} for the plane's kernel spans; nil when tracing is off

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

	// pull frontiers, filled by the workload's gathers
	rowFrontier   *bitmap.Bitmap // row-wide L frontier for L2H pull
	worldFrontier *bitmap.Bitmap // world-wide L frontier for L2L pull

	// cached active counts, recomputed after each hub sync / L update
	activeL int64
	visitL  int64

	// pendNewHubs/pendAL stage the epilogue's agreed global counts between
	// step 3 and endIter (committed only after the iteration passes the vote).
	pendNewHubs, pendAL int64
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

// lRowMasks are one rank's word masks over its owned L block: "row is
// non-empty", one per L-keyed CSR, and isHub, the owned vertices that are hubs
// (their L slots are shadowed by the delegates). They are derived from the
// rank graph at engine construction and kept beside it rather than in it, so
// the checkpoint graph tier's format does not change.
type lRowMasks struct{ toE, toH, toL, isHub []uint64 }

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

// rankScratch holds one rank's exchange buffers on the engine, so what one
// iteration or run grew the next reuses: every user re-slices to [:0] before
// filling. Reuse right after a collective returns is safe because receivers
// copy a sender's buffer before the collective's closing barrier. The planes
// of a batch share their rank's scratch; they run one at a time, and so do
// the workloads of successive runs.
type rankScratch struct {
	active               []int32             // ehPush: active source positions
	ups                  []comm.SparseUpdate // sparse pushes parked until their flush
	lParts               [][]lMsg            // dense send buffers
	hubParts             [][]hubMsg
	l2lParts             [][]l2lMsg
	distParts            [][]distMsg
	sendWords, recvWords []uint64 // pull-frontier gathers

	touched  touchedHubs // delegates changed since the last syncTouched
	hubRecs  []hubMsg    // syncTouched's packed records
	distRecs []distMsg
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

func snapRaw(dst *[]uint64, w []uint64) {
	if cap(*dst) < len(w) {
		*dst = make([]uint64, len(w))
	}
	*dst = (*dst)[:len(w)]
	copy(*dst, w)
}

// seedRoot puts the plane's root in its frontier on a fresh start: a hub
// root on every rank, an L root at its owner (whose local counts it sets).
func (st *rankState) seedRoot() {
	layout := st.e.Part.Layout
	if h, ok := st.e.Part.Hubs.HubOf(st.root); ok {
		st.hubFrontier.Set(int(h))
		st.hubVisited.Set(int(h))
		st.parentHub[h] = st.root
	} else if layout.Owner(st.root) == st.r.ID {
		li := layout.LocalIdx(st.root)
		st.lFrontier.Set(int(li))
		st.lVisited.Set(int(li))
		st.parentL[li] = st.root
		st.activeL = 1
		st.visitL = 1
	}
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

// kernel runs one of the plane's kernels or message generators under the
// rank's driver, with the plane's query id on the span. They are rank-local,
// so there is no error to relay.
func (st *rankState) kernel(c partition.Component, dir stats.Direction, fn func() int64) {
	st.kernelArgs = st.qidArgs
	_ = st.runComp(c, dir, func() (int64, error) { return fn(), nil })
	st.kernelArgs = nil
}

// foldHubs folds globally merged hub activations into the plane's visited
// state. After the sync hubNew holds the union of all ranks' new activations
// (it may include hubs another rank also activated; the visited filter is
// idempotent).
func (st *rankState) foldHubs() {
	st.hubNew.AndNot(st.hubVisited)
	st.hubIter.Or(st.hubNew)
	st.hubVisited.Or(st.hubNew)
	st.hubNew.Reset()
}

// advance is the plane's share of the epilogue: this iteration's activations
// become the next frontier.
func (st *rankState) advance() {
	st.hubFrontier.CopyFrom(st.hubIter)
	st.hubIter.Reset()
	st.lFrontier.CopyFrom(st.lNew)
	st.lVisited.Or(st.lNew)
	st.lNew.Reset()
}

// endIter commits the epilogue's agreed counts; the query converges when no
// hub and no L vertex was newly discovered.
func (st *rankState) endIter() bool {
	st.activeL = st.pendAL
	st.visitL += st.pendAL
	return st.pendNewHubs+st.pendAL == 0
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
