package core

import (
	"cmp"
	"slices"
	"time"
	"unsafe"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the workload base: the one per-rank runtime embedded by BFS,
// WCC, k-core, SSSP and PageRank alike. A workload declares, in one
// valueSpec, its hooks, its planes — Q ≥ 1 independent instances of the six
// kernels, one per query (BFS batches Q roots; the value workloads declare
// one) — an optional hub sync, its epilogue, the state the checkpoint
// persists and what else a retried step must roll back. Every workload
// declares one valuePush per plane, from which the base builds the six push
// kernels (BFS's is a claim push, beside its hand-written pulls). The base
// owns the rest: the iteration loop and its one retry protocol
// (workload.go), the step schedule, the per-step rollback, the checkpoint
// slots and their replay, and the one remote-push path (ship), which frames
// the planes' dense runs into one exchange and dispatches their sparse
// records in one pass.

// workloadIterScale multiplies Opt.MaxIterations for the value workloads:
// label propagation runs to the graph diameter, peeling can shave a long path
// two vertices per round, and delta-stepping visits one bucket per quiescent
// iteration — all far past a small-world BFS depth but still bounded.
const workloadIterScale = 32

// qidTagShift packs (plane, component) into a sparse-update tag: the low bits
// carry the component (NumComponents = 6 fits in 3 bits), the rest the plane,
// so plane 0's tag is the component itself. A batch is capped well below the
// 2^28 planes an int32 tag can hold.
const qidTagShift = 3

// valueBase is the per-rank runtime every workload embeds by value, so
// kernels reach its fields (r, rg, scr, ...) via promotion: the rank's world
// handles, recorder and span stream, the workload's declaration, the
// iteration's exchange plan, the running kernel's exchange state, the step
// snapshots and the retry, checkpoint and recovery bookkeeping.
type valueBase struct {
	e   *Engine
	r   *comm.Rank
	rg  *partition.RankGraph
	rec *stats.Recorder
	scr *rankScratch // the engine's exchange buffers for this rank, reused across runs

	// tr is the rank's span stream (nil when tracing is off); curIter,
	// curStep and curAttempt are the coordinates stamped on emitted spans.
	tr         *trace.Stream
	curIter    int64
	curStep    int
	curAttempt int
	// iter is the running iteration's record: its frontier composition and
	// the schedule beginIter latched for it.
	iter IterTrace

	// maxIter bounds the iteration loop (BFS: Opt.MaxIterations; the value
	// workloads a larger multiple, workloadIterScale).
	maxIter int

	// Sparse-tail feedback. lastIterBytes is the previous iteration's
	// globally summed data-plane bytes, fed back by the epilogue allreduce
	// (-1 = unknown: the first iteration, and the first after a checkpoint
	// resume — identically on every rank, which keeps the adaptive choice in
	// lockstep). iterBytesBase is the recorder's byte total at iteration
	// start.
	lastIterBytes int64
	iterBytesBase int64

	// resilience bookkeeping (only exercised under a fault transport)
	retries  int64
	recovery time.Duration

	// Fail-stop recovery plumbing, set by the engine before the loop runs.
	store       *checkpoint.Store    // nil when checkpointing is off
	scope       *checkpoint.RunScope // nil when checkpointing is off
	resumeIter  int64                // -2 fresh start; >= -1 replay the chain to here
	replaced    bool                 // slot died last epoch: reload the graph tier
	writer      *checkpoint.Writer
	resumeState *checkpoint.State // replayed state, seeds the writer's shadow
	replayDur   time.Duration     // wall clock spent replaying (engine takes the max)

	k    int   // hub count
	numE int64 // E hubs are ids [0, numE), H hubs [numE, k)

	spec valueSpec

	// q and sched name the running kernel's plane and its latched schedule.
	q     int
	sched *IterTrace

	// The iteration's exchange plan (see plan): per component, the last live
	// plane in query order that pushes it densely and sparsely (-1: none), and
	// whether the H2L and L2H sparse records ride one row flush. It derives
	// from the latched schedules only, so retries keep the same collectives.
	lastDense, lastSparse [partition.NumComponents]int
	batchRow              bool

	// The running component's exchange state: opened once a plane has taken
	// the send buffers, at where the running plane's run starts in each part,
	// pending the apply (a func([][]M)) of every plane's framed dense run so
	// far, and sinks the decode-and-apply of each plane's sparse stream, by
	// tag.
	opened  bool
	at      []int
	pending []any
	sinks   []func(us []comm.SparseUpdate) int

	// words, vals and scalars flatten everything a retried step rolls back.
	words   [][]uint64
	vals    [][]int64
	scalars []*int64
	snaps   [stepReduce + 1]valueSnap
}

// workload is what a workload writes beside its declaration: the hooks the
// base's loop calls.
//
//   - bootstrap seeds a fresh run, over the control plane where it needs
//     agreement (no prior state to retry from).
//   - beginIter fills the IterTrace frontier composition and latches the
//     iteration's direction/sparse schedule; it runs once per iteration, so
//     retries of a failed iteration keep the same collective schedule.
//   - endIter commits the epilogue's pending global counts and reports
//     convergence; it runs only after all steps passed the vote.
//   - finalize is the delayed reduction after convergence — BFS's parent
//     reduce; the base's own is a no-op. It must be idempotent: it is
//     retried like a step.
type workload interface {
	bootstrap() error
	beginIter(it *IterTrace)
	endIter(it *IterTrace) bool
	finalize() error
}

// valueSpec is all a workload declares to the base. wl is the workload
// itself: its hooks, and the state result assembly reads.
//
// The planes' kernels run in component order inside the one step schedule
// (see step); hubSync, nil for a workload that merges its hub state in the
// epilogue, follows steps 0 and 1; epilogue is step 3. Every collective
// inside a step must be reached by every rank in the same order, and a
// collective error must not short-circuit the remaining per-communicator
// schedule.
//
// The rest is the state: hubF through visitL are what the checkpoint
// persists, in the writer's fixed geometry (four word slices, two int64
// arrays, two scalars by pointer, so a replay can write them back; nil
// persists zero). A retried step rolls back the persisted state — pHub and pL
// only when they are not monotone — plus the extra words, vals and scalars.
// Value updates are not monotone across a failed collective, so any state a
// step changes and its retry would not simply overwrite must appear in one of
// them.
type valueSpec struct {
	wl       workload
	planes   []planeSpec
	hubSync  func() error
	epilogue func() error

	hubF, hubV, lF, lV []uint64
	pHub, pL           []int64
	activeL, visitL    *int64

	monotone bool
	words    [][]uint64
	vals     [][]int64
	scalars  []*int64
}

// planeSpec is one plane: its six kernels, each run under the direction the
// plane latched for its component. sched is that latched schedule — nil for
// a one-plane workload, whose schedule is the iteration's own (valueBase.iter);
// args ride on the plane's kernel spans; doneIter, when set, holds the
// iteration the plane's query converged at (negative while it runs), and a
// converged plane runs nothing.
type planeSpec struct {
	kernels  [partition.NumComponents]func() (int64, error)
	sched    *IterTrace
	args     map[string]int64
	doneIter *int64
}

func (p *planeSpec) live() bool { return p.doneIter == nil || *p.doneIter < 0 }

// valueSnap is one step's rollback copy of the declared state, plus the
// touched-hub set (kernels add to it between syncs, so a retried step must
// find it as the step found it) and the recorder (a retry re-observes the
// re-executed kernels, so the failed attempt's observations roll back with
// the state).
type valueSnap struct {
	rec     stats.Recorder
	words   [][]uint64
	vals    [][]int64
	scalars []int64
	touched []int32
}

func newValueBase(e *Engine, r *comm.Rank) valueBase {
	b := valueBase{
		e:             e,
		r:             r,
		rg:            e.Part.Ranks[r.ID],
		rec:           &stats.Recorder{},
		scr:           &e.scratch[r.ID],
		tr:            r.Trace(),
		curIter:       -1,
		curStep:       -1,
		maxIter:       e.Opt.MaxIterations * workloadIterScale,
		lastIterBytes: -1,
		resumeIter:    -2,
		k:             e.Part.Hubs.K(),
		numE:          int64(e.Part.Hubs.NumE),
	}
	b.scr.touched.reset(b.k)
	return b
}

// declare installs the workload's spec. A scalar slot the workload leaves
// nil gets a zero of its own, which is what it persists.
func (b *valueBase) declare(sp valueSpec) {
	sp.activeL, sp.visitL = cmp.Or(sp.activeL, new(int64)), cmp.Or(sp.visitL, new(int64))
	for i := range sp.planes {
		sp.planes[i].sched = cmp.Or(sp.planes[i].sched, &b.iter)
	}
	b.spec = sp
	b.words = append([][]uint64{sp.hubF, sp.hubV, sp.lF, sp.lV}, sp.words...)
	b.vals = sp.vals
	if !sp.monotone {
		b.vals = append([][]int64{sp.pHub, sp.pL}, sp.vals...)
	}
	b.scalars = append([]*int64{sp.activeL, sp.visitL}, sp.scalars...)
	b.sinks = make([]func([]comm.SparseUpdate) int, len(sp.planes)<<qidTagShift)
}

// step is the one schedule of every workload:
//
//	step 0: EH2EH, hub sync
//	step 1: E2L, H2L, L2E, L2H, hub sync
//	step 2: L2L
//	step 3: epilogue
//	step 4: the delayed reduction (stepReduce), once, after convergence
//
// Each component runs on every live plane in query order, under the plane's
// latched direction and span args; a skipped component is elided, collectives
// included, which is safe because every schedule derives from globally
// consistent counts. A failed kernel or sync does not stop the step: every
// rank must keep the same per-communicator collective schedule, and the
// first error goes to the retry vote. A retry re-enters at the top of a
// step, and the re-executed kernels regenerate every message.
func (b *valueBase) step(g int) error {
	switch g {
	case stepReduce:
		b.r.SetTag(TagReduce)
		return b.spec.wl.finalize()
	case numSteps - 1:
		b.r.SetTag(TagEpilogue)
		return b.spec.epilogue()
	}
	b.plan()
	b.scr.ups = b.scr.ups[:0]
	var first error
	collect := func(err error) {
		if first == nil {
			first = err
		}
	}
	run := func(cs ...partition.Component) {
		for _, c := range cs {
			b.opened, b.pending = false, b.pending[:0]
			for q := range b.spec.planes {
				p := &b.spec.planes[q]
				if !p.live() {
					continue
				}
				b.q, b.sched = q, p.sched
				collect(b.runComp(c, b.sched.Directions[c], p.args, p.kernels[c]))
			}
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH)
	case 1:
		run(partition.CompE2L, partition.CompH2L, partition.CompL2E, partition.CompL2H)
	default:
		run(partition.CompL2L)
		return first
	}
	if b.spec.hubSync != nil {
		collect(b.spec.hubSync())
	}
	return first
}

// plan derives the iteration's exchange plan from the live planes' latched
// schedules. H2L's sparse records ride L2H's flush when both components ship
// sparse in some plane; otherwise each component flushes on its own.
func (b *valueBase) plan() {
	for c := range b.lastDense {
		b.lastDense[c], b.lastSparse[c] = -1, -1
	}
	for q := range b.spec.planes {
		p := &b.spec.planes[q]
		if !p.live() {
			continue
		}
		s := p.sched
		for c, d := range s.Directions {
			switch {
			case d != stats.DirPush:
			case s.Sparse[c]:
				b.lastSparse[c] = q
			default:
				b.lastDense[c] = q
			}
		}
	}
	b.batchRow = b.lastSparse[partition.CompH2L] >= 0 && b.lastSparse[partition.CompL2H] >= 0
}

// finalize is a no-op: a value workload's hub state is globally consistent
// after every iteration and its L state is owner-local.
func (b *valueBase) finalize() error { return nil }

// snapshot captures what a retry of step g rolls back: the recorder, and
// the declared state unless g is the reduction, which is idempotent.
func (b *valueBase) snapshot(g int) {
	s := &b.snaps[g]
	s.rec = *b.rec
	if g == stepReduce {
		return
	}
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
	*b.rec = s.rec
	if g == stepReduce {
		return
	}
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

// pickSparse is the one dense/sparse rule: it marks in it.Sparse the remote
// push components (H2L, L2H, L2L) that ship sparse update records this
// iteration. A component is eligible when it pushes and the workload does
// not hold it dense; SparseOff ships none, SparseAlways every eligible one,
// and SparseAuto one whose global active-source count act[c] fits the cutoff
// while the previous iteration's observed global traffic (unknown = -1 right
// after start or a checkpoint resume, on every rank alike) fits the byte
// ceiling. Every input is globally consistent, so every rank latches the
// same choice.
func (b *valueBase) pickSparse(it *IterTrace, act [partition.NumComponents]int64, dense [partition.NumComponents]bool) {
	mode := b.e.Opt.SparseTail
	for _, c := range [...]partition.Component{partition.CompH2L, partition.CompL2H, partition.CompL2L} {
		it.Sparse[c] = !dense[c] && it.Directions[c] == stats.DirPush && mode != SparseOff &&
			(mode == SparseAlways || b.e.sparseTail(act[c], b.lastIterBytes))
	}
}

// emitDecision records one latched schedule as a decision span that started
// at s0: the globally consistent inputs — the frontier composition, the byte
// feedback and the workload's own args — and the per-component outcome (the
// Figure 15 unit).
func (b *valueBase) emitDecision(s0 int64, it *IterTrace, args map[string]int64) {
	args["active_e"], args["active_h"], args["active_l"] = it.ActiveE, it.ActiveH, it.ActiveL
	args["last_bytes"] = b.lastIterBytes
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

// chooseSchedule is the value workloads' direction/sparse latch: every
// component pushes (value propagation has no profitable pull form for these
// workloads) or skips when its active-source proxy is empty, and the remote
// push components go sparse under pickSparse. act[c] is the component's
// globally consistent active-source count; skipEmpty elides components with
// act[c] == 0; rowBatch allows L2H to ship sparse, and so the H2L+L2H batched
// row exchange (a workload whose L2H is a local delegation, like k-core, must
// pass false). All inputs are globally consistent, so every rank latches the
// identical schedule.
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
	b.pickSparse(it, act, [partition.NumComponents]bool{partition.CompL2H: !rowBatch})
	if b.tr != nil {
		b.emitDecision(s0, it, map[string]int64{})
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

// record is a message type the workloads push: a dense exchange carries it
// as it is, a sparse one as SparseUpdate records. put appends m's records for
// member dst under tag; get decodes the message at the head of us and reports
// how many records it spans. header is a run-length header (see openRun) and
// runLen reads one back.
type record[M any] interface {
	put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate
	get(us []comm.SparseUpdate) (M, int)
	header(n int) M
	runLen() int
}

func (m pushMsg) put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate {
	return append(ups, comm.SparseUpdate{Dst: dst, Tag: tag, Off: m.Dst, Val: m.Parent})
}

func (pushMsg) get(us []comm.SparseUpdate) (pushMsg, int) {
	return pushMsg{Dst: us[0].Off, Parent: us[0].Val}, 1
}

func (pushMsg) header(n int) pushMsg { return pushMsg{Parent: int64(n)} }
func (m pushMsg) runLen() int        { return int(m.Parent) }

// Dense framing. One dense exchange carries, per destination, one run of
// messages per plane that pushes the component densely this iteration, in
// query order. Which planes those are is globally agreed (it derives from the
// latched schedules), so only the run lengths travel: every run but the last
// is preceded by one header message holding its length, and the last run is
// whatever remains. That is one message per destination for each plane past
// the first — and none for one plane, which is why a solo run ships exactly
// the bytes a dedicated solo exchange would.

// openRun starts a run at the end of every part of send, recording where in
// at; a run that is not its exchange's last gets a header slot ahead of it,
// which closeRun fills once the run is complete.
func openRun[M record[M]](send [][]M, at []int, last bool) {
	var head M
	for j, part := range send {
		at[j] = len(part)
		if !last {
			send[j] = append(part, head)
		}
	}
}

func closeRun[M record[M]](send [][]M, at []int) {
	for j, part := range send {
		part[at[j]] = part[at[j]].header(len(part) - at[j] - 1)
	}
}

// eachRun cuts every received buffer into the n runs its sender framed and
// hands run i of all sources to apply as in-place sub-slices — per plane,
// exactly the member-major parts a dedicated exchange would deliver.
func eachRun[M record[M]](recv [][]M, n int, apply func(i int, parts [][]M)) {
	if n == 1 {
		apply(0, recv)
		return
	}
	parts := make([][]M, len(recv))
	for i := 0; i < n; i++ {
		for j, buf := range recv {
			if i < n-1 {
				parts[j] = buf[1 : 1+buf[0].runLen()]
				recv[j] = buf[1+len(parts[j]):]
			} else {
				parts[j] = buf
			}
		}
		apply(i, parts)
	}
}

// sendParts returns the running kernel's dense send buffers for component c,
// n parts of buf. The first plane to take them in a component finds them
// empty; a later one finds the earlier planes' runs and opens its own after
// them, so the planes pushing a component share one buffer per destination.
func sendParts[M record[M]](b *valueBase, c partition.Component, buf *[][]M, n int) [][]M {
	var send [][]M
	if b.opened {
		send = (*buf)[:n]
	} else {
		send, b.opened = resetParts(buf, n), true
	}
	b.at = slices.Grow(b.at[:0], n)[:n]
	openRun(send, b.at, b.sched.Sparse[c] || b.q == b.lastDense[c])
	return send
}

// ship is the one remote-push path. The running kernel has generated its run
// into send (sendParts), one part per member of c's communicator — the row
// for H2L and L2H, the world for L2L — and ship delivers it, calling apply
// with the parts this rank received for that plane, in member order.
//
// Dense, a plane that is not the component's last dense one closes its run
// and leaves its apply pending; the last one ships every plane's run in one
// Alltoallv and hands each plane its own run of what arrived. At one plane
// that is one unframed Alltoallv.
//
// Sparse, the run leaves send as records tagged with the plane and c (M's
// encoding) in the one update buffer, and the component's last sparse plane
// flushes the buffer in one allgather — except H2L on a batched row
// iteration, whose records wait for L2H's flush. The received records are
// dispatched in one pass, each applied to its own (plane, component) stream
// as it is decoded: walking the sources in member order gives every stream
// the member-major, generation-ordered sequence its dense exchange delivers,
// and streams of different planes or components lower disjoint state, so
// their interleaving is immaterial.
//
// fwd, when set, replaces the flat dense Alltoallv: it exchanges the framed
// send buffers holding runs runs.
func ship[M record[M]](b *valueBase, c partition.Component, send [][]M, apply func(recv [][]M),
	fwd func(send [][]M, runs int) ([][]M, error)) error {
	over := b.r.RowC
	if c == partition.CompL2L {
		over = b.r.World
	}
	if !b.sched.Sparse[c] {
		if b.q != b.lastDense[c] {
			closeRun(send, b.at)
			b.pending = append(b.pending, apply)
			return nil
		}
		b.pending = append(b.pending, apply)
		runs := len(b.pending)
		var recv [][]M
		var err error
		if fwd != nil {
			recv, err = fwd(send, runs)
		} else {
			recv, err = comm.Alltoallv(over, send)
		}
		if err != nil {
			return err
		}
		eachRun(recv, runs, func(i int, parts [][]M) { b.pending[i].(func([][]M))(parts) })
		return nil
	}
	tag := int32(b.q)<<qidTagShift | int32(c)
	ups := b.scr.ups
	for j, part := range send {
		for _, m := range part[b.at[j]:] {
			ups = m.put(ups, int32(j), tag)
		}
		send[j] = part[:b.at[j]]
	}
	var zero M
	one := [][]M{make([]M, 1)}
	b.sinks[tag] = func(us []comm.SparseUpdate) int {
		m, n := zero.get(us)
		one[0][0] = m
		apply(one)
		return n
	}
	if b.q != b.lastSparse[c] || (c == partition.CompH2L && b.batchRow) {
		b.scr.ups = ups
		return nil
	}
	// Emptied before the exchange even on error: a retry re-enters at the
	// top of the step and regenerates every record.
	b.scr.ups = ups[:0]
	out, err := comm.AllgatherSparse(over, ups)
	if err != nil {
		return err
	}
	for _, us := range out {
		for i := 0; i < len(us); {
			i += b.sinks[us[i].Tag](us[i:])
		}
	}
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
// packs the hub slots it changed since the last sync (b.scr.touched) as
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
func syncTouched[T any](b *valueBase, name string, recs *[]T, pack func(h int32) T, fold func(m T) (int32, bool)) error {
	t := &b.scr.touched
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
	return b.observeCollective(stats.PhaseOther, trace.KindSync, name, func() error {
		if b.k == 0 {
			return nil
		}
		err := axis(b.r.ColC)
		if e2 := axis(b.r.RowC); err == nil {
			err = e2
		}
		return err
	})
}

// hubRows walks the rows of a hub-keyed CSR (ids, ptr, adj) whose hub is in
// set, or all of them when set is nil, calling fn with the hub, the row's
// offset into adj (where an array parallel to adj holds the row's edge
// values) and the row; it returns the edges walked.
func hubRows[A any](ids []int32, ptr []int64, adj []A, set *bitmap.Bitmap, fn func(hub int32, off int64, row []A)) int64 {
	var edges int64
	for i, h := range ids {
		if set == nil || set.Test(int(h)) {
			row := adj[ptr[i]:ptr[i+1]]
			edges += int64(len(row))
			fn(h, ptr[i], row)
		}
	}
	return edges
}

// lRows walks the non-empty rows of an L-keyed CSR (ptr, adj) whose owned L
// index is in set, or all of them when set is nil, calling fn with the index,
// the row's offset into adj and the row; it returns the edges walked.
func lRows[A any](ptr []int64, adj []A, set *bitmap.Bitmap, fn func(li int32, off int64, row []A)) int64 {
	var edges int64
	walk := func(li int) {
		if row := adj[ptr[li]:ptr[li+1]]; len(row) > 0 {
			edges += int64(len(row))
			fn(int32(li), ptr[li], row)
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

// num is a value a push carries: labels, degree decrements and BFS parents
// are int64, distances and rank shares float64. The per-edge loops are
// instantiated once per type, so < and + compile inline rather than through a
// call.
type num interface{ int64 | float64 }

// valuePush is all a workload declares about its six pushes; pushKernels
// builds them. The walk, the routing, the ship and the apply are the
// runtime's; the workload only says, as data, what differs:
//
//   - the source rows (hubSrc, lSrc; nil means every row) and each row's
//     value: the source's original id under claim, else hubIn[h] or lIn[li],
//     over the row's degree where hubDeg and lDeg are set (PageRank's share),
//     and 1 where no values are set (k-core's decrement);
//   - the destinations hub (replicated) and l (owned), combined by sum, by
//     claim or else by min;
//   - claim is BFS's first-writer rule: a destination that is neither seen
//     (hubSeen, lSeen) nor marked (hubMark, lMark) gets marked and takes the
//     row's value;
//   - what a min lowering marks: hubPar and lPar take the source's original
//     id, lMark the lowered L vertex, touched the lowered hub, relax counts
//     min-lowerings;
//   - w, the per-edge addend, parallel to each component's adjacency, which
//     only a push with parents declares: that is a min push (SSSP's), and it
//     ships distMsg where any other ships pushMsg;
//   - fwd, which replaces L2L's flat dense exchange (BFS's hierarchical
//     forwarding); L2L's sends are then keyed by the owner's mesh row.
//
// Every selector an edge or a message reads is a flag or a nil-able slice,
// bitmap or pointer, not a function value: the only indirect call is the
// walker's, once per row (fwd runs once per exchange).
type valuePush[V num] struct {
	hubSrc, lSrc *bitmap.Bitmap
	hubIn, lIn   []V
	hubDeg, lDeg []int64
	w            [partition.NumComponents][]float64

	hub, l                  []V
	sum, claim              bool
	hubSeen, lSeen, hubMark *bitmap.Bitmap
	hubPar, lPar            []int64
	lMark                   *bitmap.Bitmap
	touched                 *touchedHubs
	relax                   *int64

	fwd func(send [][]pushMsg, runs int) ([][]pushMsg, error)
}

// pushKernels returns p's six kernels for the workload's plane; a push that
// counts no lowerings gets a counter nobody reads.
func pushKernels[V num](b *valueBase, p *valuePush[V]) (ks [partition.NumComponents]func() (int64, error)) {
	p.relax = cmp.Or(p.relax, new(int64))
	for c := range ks {
		ks[c] = p.kernel(b, partition.Component(c))
	}
	return ks
}

// kernel builds component c's kernel: it walks c's source rows and turns
// each edge into a candidate, the row's value plus the edge's addend. A local
// destination lowers at once: EH2EH and L2E into hub replicas, E2L into owned
// L, and L2H too under sum, whose hub partials the workload's epilogue folds.
// H2L and L2L route to the destination's owner and L2H (under min or claim)
// to its hub's column-block delegate in the row, then ship. A min L2H sends
// only what the live replica shows would lower it, and a claim L2H only to
// hubs not yet seen: nothing between L2E and L2H writes a hub replica or the
// seen set, so the check reads the same on the dense and sparse arms. H2L
// addresses the owner's local index and L2L the original id, from which the
// apply subtracts the receiver's first original id.
//
// What c fixes — the source values, the destination and its marks, the
// fan-out and the apply, which ship keeps — is settled here, once per
// declaration. The row closures are literals inside the kernel: they do not
// escape, so a call allocates nothing. Their edge loops keep their
// destination in a local, and an edge that does not lower calls nothing out
// of line: an L row is a few edges long, so even one more call per row shows.
func (p *valuePush[V]) kernel(b *valueBase, c partition.Component) func() (int64, error) {
	rg, layout, orig, mesh := b.rg, b.e.Part.Layout, b.e.Part.Hubs.Orig, b.e.Opt.Mesh
	fromHub, in, deg, l0 := c <= partition.CompH2L, p.lIn, p.lDeg, layout.GlobalOf(b.r.ID, 0)
	if fromHub {
		in, deg = p.hubIn, p.hubDeg
	}
	// Every component lowers dst: the hub replicas from EH2EH, L2E and L2H,
	// owned L from E2L, H2L and L2L. A row picks its edge loop by the combine
	// and the addends, so a min edge tests nothing but its destination.
	w, sum, claim, toHub := p.w[c], p.sum, p.claim, c == partition.CompEH2EH || c == partition.CompL2E || c == partition.CompL2H
	dst, touched, seen, mark := p.hub, p.touched, p.hubSeen, p.hubMark
	if !toHub {
		dst, touched, seen, mark = p.l, nil, p.lSeen, p.lMark
	}
	if c != partition.CompH2L && c != partition.CompL2L && (c != partition.CompL2H || sum) {
		csr := &rg.LToE
		if c == partition.CompL2H {
			csr = &rg.LToH
		}
		return func() (int64, error) {
			local := func(i int32, off int64, row []int32) {
				u := l0 + int64(i)
				if fromHub {
					u = orig[i]
				}
				switch v := rowValue(in, deg, claim, i, u); {
				case claim:
					for _, d := range row {
						if !seen.Test(int(d)) && !mark.Test(int(d)) {
							mark.Set(int(d))
							dst[d] = v
						}
					}
				case sum:
					for _, d := range row {
						dst[d] += v
						if touched != nil {
							touched.add(d)
						}
					}
				case w == nil:
					for _, d := range row {
						if v < dst[d] {
							p.lower(toHub, d, v, u)
						}
					}
				default:
					ws := w[off:][:len(row)]
					for j, d := range row {
						if x := v + V(ws[j]); x < dst[d] {
							p.lower(toHub, d, x, u)
						}
					}
				}
			}
			switch c {
			case partition.CompEH2EH:
				return hubRows(rg.EHPush.IDs, rg.EHPush.Ptr, rg.EHPush.Adj, p.hubSrc, local), nil
			case partition.CompE2L:
				return hubRows(rg.EToL.IDs, rg.EToL.Ptr, rg.EToL.Adj, p.hubSrc, local), nil
			}
			return lRows(csr.Ptr, csr.Adj, p.lSrc, local), nil
		}
	}
	// A remote apply lowers slot Dst-at of dst: at is zero for H2L's local
	// indices and L2H's hubs, the receiver's first original id for L2L.
	n, at, fwd := mesh.Cols, int64(0), p.fwd
	if c == partition.CompL2L {
		n, at = layout.P, l0
		if fwd != nil {
			n = mesh.Rows
		}
	} else {
		fwd = nil
	}
	byRow := fwd != nil
	// A push with parents ships distMsg, the candidate with its source; any
	// other pushMsg with the row's value bits in Parent (it has no addends). A
	// row picks its loop, so no edge tests which. Only a min or a claim push
	// ships L2H, so a hub apply never sums, and every apply of a push with
	// parents is a min.
	dist := p.hubPar != nil
	var applyPush func(recv [][]pushMsg)
	var applyDist func(recv [][]distMsg)
	switch {
	case dist:
		applyDist = func(recv [][]distMsg) {
			for _, part := range recv {
				for _, m := range part {
					if x, i := V(m.Dist), int32(m.To-at); x < dst[i] {
						p.lower(toHub, i, x, m.Parent)
					}
				}
			}
		}
	case claim:
		applyPush = func(recv [][]pushMsg) {
			for _, part := range recv {
				for _, m := range part {
					if i := int(m.Dst - at); !seen.Test(i) && !mark.Test(i) {
						mark.Set(i)
						dst[i] = V(m.Parent)
					}
				}
			}
		}
	default:
		applyPush = func(recv [][]pushMsg) {
			for _, part := range recv {
				for _, m := range part {
					switch x, i := *(*V)(unsafe.Pointer(&m.Parent)), int32(m.Dst-at); {
					case sum:
						dst[i] += x
					case x < dst[i]:
						p.lower(toHub, i, x, 0)
					}
				}
			}
		}
	}
	return func() (int64, error) {
		var s [][]pushMsg
		var d [][]distMsg
		if dist {
			d = sendParts(b, c, &b.scr.distParts, n)
		} else {
			s = sendParts(b, c, &b.scr.pushParts, n)
		}
		var edges int64
		switch c {
		case partition.CompH2L:
			edges = hubRows(rg.HToL.IDs, rg.HToL.Ptr, rg.HToL.Adj, p.hubSrc, func(h int32, off int64, row []partition.RemoteL) {
				if v, u := rowValue(in, deg, claim, h, orig[h]), orig[h]; d == nil {
					for _, rem := range row {
						s[rem.Col] = append(s[rem.Col], pushMsg{Dst: int64(rem.LIdx), Parent: *(*int64)(unsafe.Pointer(&v))})
					}
				} else {
					ws := w[off:][:len(row)]
					for j, rem := range row {
						d[rem.Col] = append(d[rem.Col], distMsg{To: int64(rem.LIdx), Dist: float64(v + V(ws[j])), Parent: u})
					}
				}
			})
		case partition.CompL2H:
			hubs := b.e.Part.Hubs
			edges = lRows(rg.LToH.Ptr, rg.LToH.Adj, p.lSrc, func(li int32, off int64, row []int32) {
				switch v, u := rowValue(in, deg, claim, li, l0+int64(li)), l0+int64(li); {
				case d != nil:
					ws := w[off:][:len(row)]
					for j, h := range row {
						if x := v + V(ws[j]); x < dst[h] {
							k := hubs.ColBlockOf(h, mesh)
							d[k] = append(d[k], distMsg{To: int64(h), Dist: float64(x), Parent: u})
						}
					}
				case claim:
					for _, h := range row {
						if !seen.Test(int(h)) {
							k := hubs.ColBlockOf(h, mesh)
							s[k] = append(s[k], pushMsg{Dst: int64(h), Parent: u})
						}
					}
				default:
					for _, h := range row {
						if v < dst[h] {
							k := hubs.ColBlockOf(h, mesh)
							s[k] = append(s[k], pushMsg{Dst: int64(h), Parent: *(*int64)(unsafe.Pointer(&v))})
						}
					}
				}
			})
		default:
			edges = lRows(rg.L2L.Ptr, rg.L2L.Adj, p.lSrc, func(li int32, off int64, row []int64) {
				if v, u := rowValue(in, deg, claim, li, l0+int64(li)), l0+int64(li); d == nil {
					for _, to := range row {
						k := layout.Owner(to)
						if byRow {
							k = mesh.RowOf(k)
						}
						s[k] = append(s[k], pushMsg{Dst: to, Parent: *(*int64)(unsafe.Pointer(&v))})
					}
				} else {
					ws := w[off:][:len(row)]
					for j, to := range row {
						k := layout.Owner(to)
						d[k] = append(d[k], distMsg{To: to, Dist: float64(v + V(ws[j])), Parent: u})
					}
				}
			})
		}
		if dist {
			return edges, ship(b, c, d, applyDist, nil)
		}
		return edges, ship(b, c, s, applyPush, fwd)
	}
}

// rowValue is the value of source row i, whose original id is u: u itself
// under claim, else in[i], over deg[i] when the push declares degrees, or 1
// when it declares no values.
func rowValue[V num](in []V, deg []int64, claim bool, i int32, u int64) V {
	switch {
	case claim:
		return V(u)
	case in == nil:
		return 1
	case deg == nil:
		return in[i]
	}
	return in[i] / V(deg[i])
}

// lower min-lowers slot i of the push's destination, a hub replica when
// toHub and an owned L vertex otherwise, to candidate x from source u, with
// the marks the push declares. A destination soon holds the least of its
// edges and then rarely lowers, so lower stays out of line, where its marks
// do not crowd the edge loops' registers.
//
//go:noinline
func (p *valuePush[V]) lower(toHub bool, i int32, x V, u int64) {
	*p.relax++
	if toHub {
		p.hub[i] = x
		if p.hubPar != nil {
			p.hubPar[i] = u
		}
		if p.touched != nil {
			p.touched.add(i)
		}
		return
	}
	p.l[i] = x
	if p.lPar != nil {
		p.lPar[i] = u
	}
	if p.lMark != nil {
		p.lMark.Set(int(i))
	}
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
