package core

import (
	"unsafe"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the value-workload base: the implementation of the workload
// interface that WCC, k-core, SSSP and PageRank share (BFS, in
// multisource.go, is the other). A value workload embeds valueBase and
// declares, in one valueSpec, its six kernels, an optional hub sync, its
// epilogue and its state; the base owns the one step schedule, the per-step
// rollback, the checkpoint slots and their replay, and the one remote-push
// path (ship).

// workloadIterScale multiplies Opt.MaxIterations for the value workloads:
// label propagation runs to the graph diameter, peeling can shave a long path
// two vertices per round, and delta-stepping visits one bucket per quiescent
// iteration — all far past a small-world BFS depth but still bounded.
const workloadIterScale = 32

// valueBase is the per-rank state every value workload embeds: the driver,
// the workload's declaration, the iteration's latched exchange forms and the
// step snapshots.
type valueBase struct {
	driver

	k    int   // hub count
	numE int64 // E hubs are ids [0, numE), H hubs [numE, k)

	spec valueSpec

	// sparse holds the iteration's per-component dense-vs-sparse choices and
	// batchRow whether the H2L and L2H records ride one row flush; both are
	// latched once per iteration (chooseSchedule), so retries keep the same
	// collective schedule. On a batched iteration H2L's records wait in
	// scr.ups and its delivery in parked until L2H's flush.
	sparse   [partition.NumComponents]bool
	batchRow bool
	parked   func(out [][]comm.SparseUpdate)

	// words, vals and scalars flatten everything a retried step rolls back:
	// the persisted state, then the declared extras.
	words   [][]uint64
	vals    [][]int64
	scalars []*int64
	snaps   [numSteps]valueSnap
}

// valueSpec is all a value workload declares to the base. kernels run in
// component order inside the one step schedule (see step); hubSync, nil for a
// workload that merges its hub state in the epilogue, follows steps 0 and 1;
// epilogue is step 3. The rest is the state: hubF through visitL are what the
// checkpoint persists, in the writer's geometry (ckptSlices with its scalars
// by pointer, so a replay can write them back; nil persists zero), and vals
// and scalars are what else a retried step must roll back. Value updates are
// not monotone across a failed collective, so any state a step changes and
// its retry would not simply overwrite must appear in one of the two.
type valueSpec struct {
	kernels  [partition.NumComponents]func() (int64, error)
	hubSync  func() error
	epilogue func() error

	hubF, hubV, lF, lV []uint64
	pHub, pL           []int64
	activeL, visitL    *int64

	vals    [][]int64
	scalars []*int64
}

// valueSnap is one step's rollback copy of the declared state, plus the
// touched-hub set: kernels add to it between syncs, so a retried step must
// find it as the step found it.
type valueSnap struct {
	words   [][]uint64
	vals    [][]int64
	scalars []int64
	touched []int32
}

func newValueBase(e *Engine, r *comm.Rank) valueBase {
	d := newDriver(e, r, e.Opt.MaxIterations*workloadIterScale)
	d.scr.touched.reset(e.Part.Hubs.K())
	return valueBase{driver: d, k: e.Part.Hubs.K(), numE: int64(e.Part.Hubs.NumE)}
}

// declare installs the workload's spec. A scalar slot the workload leaves
// nil gets a zero of its own, which is what it persists.
func (b *valueBase) declare(sp valueSpec) {
	for _, p := range []**int64{&sp.activeL, &sp.visitL} {
		if *p == nil {
			*p = new(int64)
		}
	}
	b.spec = sp
	b.words = [][]uint64{sp.hubF, sp.hubV, sp.lF, sp.lV}
	b.vals = append([][]int64{sp.pHub, sp.pL}, sp.vals...)
	b.scalars = append([]*int64{sp.activeL, sp.visitL}, sp.scalars...)
}

func (b *valueBase) drv() *driver { return &b.driver }

// step is the one schedule of every value workload:
//
//	step 0: EH2EH, hub sync
//	step 1: E2L, H2L, L2E, L2H, hub sync
//	step 2: L2L
//	step 3: epilogue
//
// A failed kernel or sync does not stop the step: every rank must keep the
// same per-communicator collective schedule, and the first error goes to the
// driver's vote.
func (b *valueBase) step(g int, it *IterTrace) error {
	var first error
	collect := func(err error) {
		if first == nil {
			first = err
		}
	}
	run := func(cs ...partition.Component) {
		for _, c := range cs {
			collect(b.runComp(c, it.Directions[c], b.spec.kernels[c]))
		}
	}
	sync := func() {
		if b.spec.hubSync != nil {
			collect(b.spec.hubSync())
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH)
		sync()
	case 1:
		run(partition.CompE2L, partition.CompH2L, partition.CompL2E, partition.CompL2H)
		sync()
	case 2:
		run(partition.CompL2L)
	default:
		b.r.SetTag(TagEpilogue)
		return b.spec.epilogue()
	}
	return first
}

// finalize is a no-op: a value workload's hub state is globally consistent
// after every iteration and its L state is owner-local.
func (b *valueBase) finalize() error { return nil }

func (b *valueBase) snapshot(g int) {
	s := &b.snaps[g]
	words := resetParts(&s.words, len(b.words))
	for i, w := range b.words {
		words[i] = append(words[i], w...)
	}
	vals := resetParts(&s.vals, len(b.vals))
	for i, v := range b.vals {
		vals[i] = append(vals[i], v...)
	}
	s.scalars = s.scalars[:0]
	for _, p := range b.scalars {
		s.scalars = append(s.scalars, *p)
	}
	s.touched = append(s.touched[:0], b.scr.touched.list...)
}

func (b *valueBase) restore(g int) {
	s := &b.snaps[g]
	for i, w := range b.words {
		copy(w, s.words[i])
	}
	for i, v := range b.vals {
		copy(v, s.vals[i])
	}
	for i, p := range b.scalars {
		*p = s.scalars[i]
	}
	t := &b.scr.touched
	t.clear()
	for _, h := range s.touched {
		t.add(h)
	}
}

func (b *valueBase) ckpt() ckptSlices {
	sp := &b.spec
	return ckptSlices{hubF: sp.hubF, hubV: sp.hubV, lF: sp.lF, lV: sp.lV,
		pHub: sp.pHub, pL: sp.pL, activeL: *sp.activeL, visitL: *sp.visitL}
}

func (b *valueBase) loadState(cs *checkpoint.State) {
	sp := &b.spec
	copy(sp.hubF, cs.HubFrontier)
	copy(sp.hubV, cs.HubVisited)
	copy(sp.lF, cs.LFrontier)
	copy(sp.lV, cs.LVisited)
	copy(sp.pHub, cs.ParentHub)
	copy(sp.pL, cs.ParentL)
	*sp.activeL, *sp.visitL = cs.ActiveL, cs.VisitL
}

// chooseSchedule is the value workloads' direction/sparse latch: every
// component pushes (value propagation has no profitable pull form for these
// workloads) or skips when its active-source proxy is empty, and the remote
// push components go sparse under the same cutoff + byte-feedback rule as
// BFS (see pickSparse). act[c] is the component's globally consistent
// active-source count; skipEmpty elides components with act[c] == 0;
// rowBatch allows the H2L+L2H batched row exchange (a workload whose L2H is
// a local delegation, like k-core, must pass false). All inputs are
// globally consistent, so every rank latches the identical schedule.
func (b *valueBase) chooseSchedule(it *IterTrace, act [partition.NumComponents]int64, skipEmpty, rowBatch bool) {
	var s0 int64
	if b.tr != nil {
		s0 = b.tr.Now()
	}
	for c := 0; c < int(partition.NumComponents); c++ {
		if skipEmpty && act[c] == 0 {
			it.Directions[c] = stats.DirSkip
		} else {
			it.Directions[c] = stats.DirPush
		}
	}
	mode := b.e.Opt.SparseTail
	eligible := func(c partition.Component) bool {
		if it.Directions[c] != stats.DirPush {
			return false
		}
		if mode == SparseOff {
			return false
		}
		if mode == SparseAlways {
			return true
		}
		return b.e.sparseTail(act[c], b.lastIterBytes)
	}
	it.Sparse[partition.CompH2L] = eligible(partition.CompH2L)
	it.Sparse[partition.CompL2H] = rowBatch && eligible(partition.CompL2H)
	it.Sparse[partition.CompL2L] = eligible(partition.CompL2L)
	b.sparse = it.Sparse
	b.batchRow = rowBatch && it.Sparse[partition.CompH2L] && it.Sparse[partition.CompL2H]
	if b.tr != nil {
		args := map[string]int64{
			"active_e":   it.ActiveE,
			"active_h":   it.ActiveH,
			"active_l":   it.ActiveL,
			"last_bytes": b.lastIterBytes,
		}
		for c := 0; c < int(partition.NumComponents); c++ {
			args["dir_"+partition.Component(c).String()] = int64(it.Directions[c])
			if it.Sparse[c] {
				args["sparse_"+partition.Component(c).String()] = 1
			}
		}
		b.tr.Emit(trace.Span{Kind: trace.KindDecision, Epoch: b.r.Epoch(),
			Iter: b.curIter, Step: -1, Name: "choose_schedule",
			Start: s0, Dur: b.tr.Now() - s0, Args: args})
	}
}

// frontierSchedule latches the schedule of a workload whose sources are a
// replicated hub set and an owned L set with a globally agreed count: hub
// components key off their hub class, L components off the L count, empty
// components skip, and the H2L+L2H row batch is allowed.
func (b *valueBase) frontierSchedule(it *IterTrace, hubs *bitmap.Bitmap, activeL int64) {
	it.ActiveE = int64(hubs.CountRange(0, int(b.numE)))
	it.ActiveH = int64(hubs.CountRange(int(b.numE), b.k))
	it.ActiveL = activeL
	var act [partition.NumComponents]int64
	act[partition.CompEH2EH] = it.ActiveE + it.ActiveH
	act[partition.CompE2L] = it.ActiveE
	act[partition.CompH2L] = it.ActiveH
	act[partition.CompL2E] = activeL
	act[partition.CompL2H] = activeL
	act[partition.CompL2L] = activeL
	b.chooseSchedule(it, act, true, true)
}

// agree is an epilogue's count agreement: one world sum-allreduce of two
// counts and the iteration's observed data-plane bytes, whose global total
// becomes the next iteration's sparse-tail feedback. It returns the two
// global counts.
func (b *valueBase) agree(x, y int64) (int64, int64, error) {
	sums, err := comm.AllreduceSumInt64s(b.r.World, []int64{x, y, commBytes(b.rec) - b.iterBytesBase})
	if err != nil {
		return 0, 0, err
	}
	b.lastIterBytes = sums[2]
	return sums[0], sums[1], nil
}

// record is a message type the value workloads push: a dense exchange
// carries it as it is, a sparse one as SparseUpdate records. put appends m's
// records for member dst under tag; get decodes the message at the head of us
// and reports how many records it spans.
type record[M any] interface {
	put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate
	get(us []comm.SparseUpdate) (M, int)
}

func (m lMsg) put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate {
	return append(ups, comm.SparseUpdate{Dst: dst, Tag: tag, Off: int64(m.LIdx), Val: m.Parent})
}

func (lMsg) get(us []comm.SparseUpdate) (lMsg, int) {
	return lMsg{LIdx: int32(us[0].Off), Parent: us[0].Val}, 1
}

func (m hubMsg) put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate {
	return append(ups, comm.SparseUpdate{Dst: dst, Tag: tag, Off: int64(m.Hub), Val: m.Parent})
}

func (hubMsg) get(us []comm.SparseUpdate) (hubMsg, int) {
	return hubMsg{Hub: int32(us[0].Off), Parent: us[0].Val}, 1
}

func (m l2lMsg) put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate {
	return append(ups, comm.SparseUpdate{Dst: dst, Tag: tag, Off: m.Dst, Val: m.Parent})
}

func (l2lMsg) get(us []comm.SparseUpdate) (l2lMsg, int) {
	return l2lMsg{Dst: us[0].Off, Parent: us[0].Val}, 1
}

// ship is the value workloads' one remote-push path. The kernel has filled
// send with one dense part per member of c's communicator (the row for H2L
// and L2H, the world for L2L); ship delivers it and calls apply once with the
// parts this rank received, in member order. A dense iteration is one
// Alltoallv. On an iteration the schedule latched sparse, the parts are
// encoded as records tagged c (M's encoding) and flushed in one allgather —
// or, for H2L on a batched row iteration, parked until L2H's flush carries
// both. Each component's received records then decode back into its send
// parts, free once the flush has returned, so apply sees exactly the parts
// the dense exchange delivers; components of one flush lower disjoint state,
// so applying one after the other matches any interleaving.
func ship[M record[M]](b *valueBase, c partition.Component, send [][]M, apply func(recv [][]M)) error {
	over := b.r.RowC
	if c == partition.CompL2L {
		over = b.r.World
	}
	if !b.sparse[c] {
		recv, err := comm.Alltoallv(over, send)
		apply(recv)
		return err
	}
	batched := b.batchRow && c != partition.CompL2L
	ups := b.scr.ups
	if !batched || c == partition.CompH2L {
		ups = ups[:0]
	}
	for j, part := range send {
		for _, m := range part {
			ups = m.put(ups, int32(j), int32(c))
		}
	}
	deliver := func(out [][]comm.SparseUpdate) {
		var zero M
		for j, us := range out {
			part := send[j][:0]
			for i := 0; i < len(us); {
				if us[i].Tag != int32(c) {
					i++
					continue
				}
				m, n := zero.get(us[i:])
				part = append(part, m)
				i += n
			}
			send[j] = part
		}
		apply(send)
	}
	if batched && c == partition.CompH2L {
		b.scr.ups, b.parked = ups, deliver
		return nil
	}
	parked := b.parked
	// Emptied before the exchange even on error: a retry re-enters at the
	// top of the step and regenerates every record.
	b.scr.ups, b.parked = ups[:0], nil
	out, err := comm.AllgatherSparse(over, ups)
	if err != nil {
		return err
	}
	if parked != nil {
		parked(out)
	}
	deliver(out)
	return nil
}

// touchedHubs is the set of replicated hub slots a rank has changed since the
// last delegate sync: a mark per hub so a slot enters the list once, and the
// list so that clearing and shipping cost what changed, not K.
type touchedHubs struct {
	mark []uint64
	list []int32
}

// reset empties the set and sizes it for k hubs. A run that aborted between
// a kernel and its sync leaves marks behind; the list names them.
func (t *touchedHubs) reset(k int) {
	if len(t.mark) != (k+63)/64 {
		t.mark, t.list = make([]uint64, (k+63)/64), t.list[:0]
	}
	t.clear()
}

func (t *touchedHubs) add(h int32) {
	if w, b := h>>6, uint64(1)<<uint(h&63); t.mark[w]&b == 0 {
		t.mark[w] |= b
		t.list = append(t.list, h)
	}
}

func (t *touchedHubs) clear() {
	for _, h := range t.list {
		t.mark[h>>6] = 0
	}
	t.list = t.list[:0]
}

// syncTouched is the value workloads' delegate sync: the paper's delayed
// reduction of replicated hub state, shipping only what changed. Every rank
// packs the hub slots it changed since the last sync (d.scr.touched) as
// (hub, value) records, allgathers them down its column and folds the other
// members' records into its replica; whatever that changed joins the touched
// set, which then travels along the row the same way. fold applies one
// received record and reports whether the rank must pass that hub on (a
// min-fold passes on what it lowered, a sum-fold everything); folds are
// commutative and associative, so every replica ends identical whatever the
// member order. On return the touched set is the hubs changed anywhere in the
// world, for the caller to consume and clear. Both allgathers always run —
// with empty records where nothing changed, and after a column failure — so
// every rank keeps the same per-communicator schedule; a failed merge leaves
// garbage the step retry's snapshot restore discards. Observed as PhaseOther.
func syncTouched[T any](d *driver, name string, recs *[]T, pack func(h int32) T, fold func(m T) (int32, bool)) error {
	t := &d.scr.touched
	axis := func(c *comm.Comm) error {
		send := (*recs)[:0]
		for _, h := range t.list {
			send = append(send, pack(h))
		}
		*recs = send
		parts, err := comm.Allgatherv(c, send)
		for j, part := range parts {
			if j == c.Rank() {
				continue
			}
			for _, m := range part {
				if h, pass := fold(m); pass {
					t.add(h)
				}
			}
		}
		return err
	}
	return d.observeCollective(stats.PhaseOther, trace.KindSync, name, func() error {
		if d.e.Part.Hubs.K() == 0 {
			return nil
		}
		err := axis(d.r.ColC)
		if e2 := axis(d.r.RowC); err == nil {
			err = e2
		}
		return err
	})
}

// hubRows walks the rows of a hub-keyed CSR (ids, ptr, adj) whose hub is in
// set, or all of them when set is nil, calling fn with the hub and its row;
// it returns the edges walked.
func hubRows[A any](ids []int32, ptr []int64, adj []A, set *bitmap.Bitmap, fn func(hub int32, row []A)) int64 {
	var edges int64
	for i, h := range ids {
		if set == nil || set.Test(int(h)) {
			row := adj[ptr[i]:ptr[i+1]]
			edges += int64(len(row))
			fn(h, row)
		}
	}
	return edges
}

// lRows walks the non-empty rows of an L-keyed CSR (ptr, adj) whose owned L
// index is in set, or all of them when set is nil, calling fn with the index
// and its row; it returns the edges walked.
func lRows[A any](ptr []int64, adj []A, set *bitmap.Bitmap, fn func(li int, row []A)) int64 {
	var edges int64
	walk := func(li int) {
		if row := adj[ptr[li]:ptr[li+1]]; len(row) > 0 {
			edges += int64(len(row))
			fn(li, row)
		}
	}
	if set != nil {
		set.ForEach(walk)
		return edges
	}
	for li := 0; li+1 < len(ptr); li++ {
		walk(li)
	}
	return edges
}

// latch copies live into base for the members of set — the only slots the
// iteration's kernels read a base value of — or wholesale when most slots are
// members and one memcpy beats the walk.
func latch[T any](base, live []T, set *bitmap.Bitmap) {
	if set.Count()*8 > len(live) {
		copy(base, live)
		return
	}
	set.ForEach(func(i int) { base[i] = live[i] })
}

// writeOwned writes a rank's share of a global per-vertex result: l, its
// owned L values (nil leaves the block as it is), then the hubs whose
// original IDs it owns, from hub (hub state is identical on every rank).
func writeOwned[T any](b *valueBase, arr, l []T, hub func(h int32) T) {
	blk := ownedSeg(b.e, b.r.ID, arr)
	copy(blk, l)
	lo := b.e.Part.Layout.GlobalOf(b.r.ID, 0)
	for _, h := range b.e.hubsAt[b.r.ID] {
		blk[b.e.Part.Hubs.Orig[h]-lo] = hub(h)
	}
}

// float64View reinterprets a slice of IEEE-754 bit patterns as the float64s
// they encode, sharing its memory (int64 and float64 agree in size and
// alignment); bitsOf is the converse view of one float64, for declaring a
// float scalar to the checkpoint.
func float64View(bits []int64) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(bits))), len(bits))
}

func bitsOf(f *float64) *int64 { return (*int64)(unsafe.Pointer(f)) }
