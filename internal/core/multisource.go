package core

import (
	"fmt"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the BFS workload — the one traversal behind Engine.Run and
// Engine.RunBatch. One iteration sweep traverses Q independent queries at
// once, with one plane per query stacked over contiguous backings. A query
// asks for a full tree or for one target's level and parent; a target plane
// leaves the sweep at the end of the iteration that visits its target, the
// iteration that fixes its answer (see endIter). The planes
// are declared to the workload base (value.go), whose one step schedule runs
// them all and whose exchanges carry them all, so every collective — hub
// syncs, dense exchanges, sparse flushes, frontier gathers, the epilogue
// allreduce and the delayed parent reduction — is issued once per exchange
// point for the whole batch instead of once per query. Engine.Run is the
// batch of one: nothing below branches on Q.
//
// Queries do not interact: a batch of K roots produces, per query, exactly
// the parents K separate runs produce. It holds because (a) every per-query
// schedule decision (direction, sparse, skip) is computed by the plane from
// that query's own globally consistent counts, (b) every query's messages
// are generated and applied by the plane's declared push (value.go) in
// member-major order, whatever else shares the exchange, and (c) the one
// schedule input that IS batch-global — the previous iteration's byte
// feedback, fed identically to every plane — can only move a component
// between its dense and sparse exchange forms, which are bit-equal by the
// established dense/sparse contract.

// maxBatchWidth bounds RunBatch's query count; real batches are far smaller
// (the daemon's admission control sizes them from perfmodel memory math).
const maxBatchWidth = 1 << 20

// multiState is the BFS workload: Q planes (rankState) whose bitmaps, parent
// arrays and counters are windows of contiguous per-kind backings, declared
// to the base, which runs them on the same four-step retryable iteration
// skeleton (valueBase.runLoop) as every other workload — so step-granular retry,
// checkpointing, drain and fail-stop epoch recovery apply to any batch width
// unchanged. What only BFS needs is here: the seeds, the per-plane direction
// choice, the hub sync, the pull-frontier gathers, the hierarchical L2L
// forward, the epilogue and the delayed parent reduction.
type multiState struct {
	valueBase

	planes []*rankState

	// The stacked bit-planes: hub frontier, visited, new (not yet synced) and
	// this iteration's activations; L frontier, visited and new.
	hubF, hubV, hubN, hubI *bitmap.Planes
	lF, lV, lN             *bitmap.Planes

	// pHubAll holds the Q stacked delegate parent arrays (Q*k) followed by a
	// 3-slot-per-query tail that IS each plane's activeL, visitL and doneIter
	// — the whole thing is the checkpoint's pHub array, so capture and replay
	// ride the writer's fixed geometry with no copy and no unpacking.
	pHubAll []int64

	// firstPull is, per component, the first live plane pulling it (-1:
	// none), the one that gathers every pulling plane's frontier; pullErr is
	// that gather's outcome for the planes after it.
	firstPull [partition.NumComponents]int
	pullErr   error

	// pendAL stages the epilogue's agreed sums until endIter commits them once
	// the iteration has passed the vote: one global L count per query, the
	// byte feedback, then one found count per target plane.
	pendAL []int64
	// targets counts the target planes, whose found slots close the epilogue
	// vector.
	targets int
}

func newMultiState(e *Engine, r *comm.Rank, qs []Query) *multiState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	nq := len(qs)
	m := &multiState{
		valueBase: newValueBase(e, r),
		planes:    make([]*rankState, nq),
		pHubAll:   make([]int64, nq*k+3*nq),
		hubF:      bitmap.NewPlanes(nq, k),
		hubV:      bitmap.NewPlanes(nq, k),
		hubN:      bitmap.NewPlanes(nq, k),
		hubI:      bitmap.NewPlanes(nq, k),
		lF:        bitmap.NewPlanes(nq, per),
		lV:        bitmap.NewPlanes(nq, per),
		lN:        bitmap.NewPlanes(nq, per),
	}
	pL := make([]int64, nq*per)     // Q stacked owned-L parent arrays
	m.maxIter = e.Opt.MaxIterations // a BFS ends within the graph's diameter
	for i := 0; i < nq*k; i++ {
		m.pHubAll[i] = -1
	}
	for i := range pL {
		pL[i] = -1
	}
	tail := m.pHubAll[nq*k:]
	specs := make([]planeSpec, nq)
	for q, qu := range qs {
		c := tail[3*q : 3*q+3 : 3*q+3]
		c[2] = -1
		p := &rankState{
			multiState:  m,
			qid:         q,
			root:        qu.Root,
			target:      qu.Target,
			foundSlot:   -1,
			numL:        e.Part.Layout.N - int64(k),
			hubFrontier: m.hubF.Plane(q),
			hubVisited:  m.hubV.Plane(q),
			hubNew:      m.hubN.Plane(q),
			hubIter:     m.hubI.Plane(q),
			parentHub:   m.pHubAll[q*k : (q+1)*k : (q+1)*k],
			lFrontier:   m.lF.Plane(q),
			lVisited:    m.lV.Plane(q),
			lNew:        m.lN.Plane(q),
			parentL:     pL[q*per : (q+1)*per : (q+1)*per],
			activeL:     &c[0],
			visitL:      &c[1],
			doneIter:    &c[2],
		}
		if qu.Target >= 0 {
			p.foundSlot = nq + 1 + m.targets
			m.targets++
		}
		m.planes[q] = p
		specs[q] = planeSpec{kernels: p.kernels(), sched: &p.sched, doneIter: p.doneIter}
		if m.tr != nil {
			specs[q].args = map[string]int64{"qid": int64(q)}
		}
	}
	// A retried step rolls back every frontier/visited backing and the
	// counter tail, but not the parent arrays: parent updates are monotone (a
	// slot is written at most once per discovery, always with a valid BFS
	// parent at the discovering level), so any write a failed attempt left
	// behind is either re-performed identically by the retry or is already a
	// correct parent for that vertex. hubNew, hubIter and lNew are empty at
	// every capture point, so they are not part of the on-disk state.
	m.declare(valueSpec{
		wl:       m,
		planes:   specs,
		hubSync:  m.syncHubs,
		epilogue: m.epilogue,
		hubF:     m.hubF.Words(), hubV: m.hubV.Words(),
		lF: m.lF.Words(), lV: m.lV.Words(),
		pHub: m.pHubAll, pL: pL,
		monotone: true,
		words:    [][]uint64{m.hubN.Words(), m.hubI.Words(), m.lN.Words()},
		vals:     [][]int64{tail},
	})
	return m
}

// bootstrap seeds every plane's root — a hub root on every rank, an L root at
// its owner — and sets the global L counts its direction choice reads. Every
// rank knows them without a collective: one active and visited L vertex for
// an L root, none for a hub root.
func (m *multiState) bootstrap() error {
	layout := m.e.Part.Layout
	for _, p := range m.planes {
		if h, ok := m.e.Part.Hubs.HubOf(p.root); ok {
			p.hubFrontier.Set(int(h))
			p.hubVisited.Set(int(h))
			p.parentHub[h] = p.root
			continue
		}
		if layout.Owner(p.root) == m.r.ID {
			li := layout.LocalIdx(p.root)
			p.lFrontier.Set(int(li))
			p.lVisited.Set(int(li))
			p.parentL[li] = p.root
		}
		*p.activeL, *p.visitL = 1, 1
	}
	return nil
}

// beginIter latches every live plane's schedule (each plane sees its own
// counts plus the shared batch-global byte feedback) and aggregates the
// batch-level IterTrace the base's loop records, which carries the live
// planes' own records along.
func (m *multiState) beginIter(it *IterTrace) {
	var s0 int64
	if m.tr != nil {
		s0 = m.tr.Now()
	}
	for c := range it.Directions {
		it.Directions[c] = stats.DirSkip
		m.firstPull[c] = -1
	}
	for q, p := range m.planes {
		if *p.doneIter >= 0 {
			continue
		}
		p.chooseDirections()
		pt := &p.sched
		it.queries = append(it.queries, queryIter{qid: q, it: *pt})
		it.ActiveE += pt.ActiveE
		it.ActiveH += pt.ActiveH
		it.ActiveL += pt.ActiveL
		for c, d := range pt.Directions {
			if pt.Sparse[c] {
				it.Sparse[c] = true
			}
			if d == stats.DirPull && m.firstPull[c] < 0 {
				m.firstPull[c] = q
			}
			if d == stats.DirSkip {
				continue
			}
			switch it.Directions[c] {
			case stats.DirSkip:
				it.Directions[c] = d
			case d:
				// agreement across planes
			default:
				it.Directions[c] = stats.DirNone // mixed
			}
		}
	}
	if m.tr != nil {
		live := len(it.queries)
		m.tr.Emit(trace.Span{Kind: trace.KindBatch, Epoch: m.r.Epoch(),
			Iter: m.curIter, Step: -1, Name: "batch_iter",
			Start: s0, Dur: m.tr.Now() - s0,
			Args: map[string]int64{
				"queries": int64(len(m.planes)),
				"live":    int64(live),
				"done":    int64(len(m.planes) - live),
			}})
	}
}

// syncHubs merges every plane's hub activations in ONE column+row allreduce
// pair over the contiguous hubNew backing — the paper's delegation traffic
// pattern (E and H state moves only on column and row links) — then folds
// each plane. Both allreduces always run — even after the column one fails —
// so the row communicator's collective schedule matches on every rank.
// Planes with nothing to sync contribute all-zero words and a no-op fold, so
// the shared collective cannot perturb them. Only EH2EH (step 0) and L2E and
// L2H (step 1) set hubNew, and the previous sync left it empty, so when every
// live plane skipped them (the batch schedule says so) the allreduce pair
// would carry all-zero words and is elided — a globally consistent decision
// like every skip. Observed as PhaseOther.
func (m *multiState) syncHubs() error {
	d := &m.iter.Directions
	if d[partition.CompEH2EH] == stats.DirSkip && m.curStep == 0 ||
		d[partition.CompL2E] == stats.DirSkip && d[partition.CompL2H] == stats.DirSkip && m.curStep == 1 {
		return nil
	}
	err := m.observeCollective(stats.PhaseOther, trace.KindSync, "hub_sync", func() error {
		words := m.hubN.Words()
		if len(words) == 0 {
			return nil
		}
		err := comm.AllreduceOr(m.r.ColC, words)
		if e2 := comm.AllreduceOr(m.r.RowC, words); err == nil {
			err = e2
		}
		return err
	})
	for _, p := range m.planes {
		// hubNew now holds the union of all ranks' new activations; a hub
		// another rank also activated is filtered by the visited set.
		p.hubNew.AndNot(p.hubVisited)
		p.hubIter.Or(p.hubNew)
		p.hubVisited.Or(p.hubNew)
		p.hubNew.Reset()
	}
	return err
}

// pull runs the plane's pull of a remote component (L2H or L2L). The first
// pulling plane ships the local L frontiers of every plane pulling c in one
// uniform allgather over c's communicator (the row for L2H, the world for
// L2L) and scatters the member-major result into each plane's gathered
// frontier (rowFrontier or worldFrontier, allocated on first use) — exactly
// what one gather per plane would build; each plane then probes its own. A
// failed gather leaves every probe undone, for the step's retry.
func (st *rankState) pull(c partition.Component, scan func() int64) (int64, error) {
	if st.qid == st.firstPull[c] {
		st.pullErr = st.gatherPull(c)
	}
	if st.pullErr != nil {
		return 0, st.pullErr
	}
	return scan(), nil
}

func (m *multiState) gatherPull(c partition.Component) error {
	over, dstOf := m.r.RowC, func(p *rankState) **bitmap.Bitmap { return &p.rowFrontier }
	if c == partition.CompL2L {
		over, dstOf = m.r.World, func(p *rankState) **bitmap.Bitmap { return &p.worldFrontier }
	}
	var qs []*rankState
	for _, p := range m.planes[m.firstPull[c]:] {
		if *p.doneIter < 0 && p.sched.Directions[c] == stats.DirPull {
			qs = append(qs, p)
		}
	}
	lw := m.lF.Stride()
	n := len(qs) * lw
	members := over.Size()
	m.scr.sendWords = slices.Grow(m.scr.sendWords[:0], n)
	m.scr.recvWords = slices.Grow(m.scr.recvWords[:0], members*n)
	send, recv := m.scr.sendWords[:n], m.scr.recvWords[:members*n]
	for i, p := range qs {
		copy(send[i*lw:(i+1)*lw], p.lFrontier.Words())
		if dst := dstOf(p); *dst == nil {
			*dst = bitmap.New(m.lF.BitsPerPlane() * members)
		}
	}
	if err := comm.AllgathervUniform(over, send, recv); err != nil {
		return err
	}
	for i, p := range qs {
		dw := (*dstOf(p)).Words()
		for j := 0; j < members; j++ {
			copy(dw[j*lw:(j+1)*lw], recv[j*n+i*lw:j*n+(i+1)*lw])
		}
	}
	return nil
}

// forwardL2L is the dense L2L exchange under Options.Hierarchical, the
// paper's forwarding scheme for fewer live global connections: the framed
// runs travel down the column by destination row (the push keys them so),
// then along the row by owner column, each plane's run re-framed by the
// forwarder. Stage 2 runs even when stage 1 failed (with nothing to forward)
// so every rank keeps the same per-communicator collective schedule under
// faults. It is always dense: chooseDirections holds it so.
func (m *multiState) forwardL2L(send [][]pushMsg, runs int) ([][]pushMsg, error) {
	layout := m.e.Part.Layout
	mesh := m.e.Opt.Mesh
	viaCol, colErr := comm.Alltoallv(m.r.ColC, send)
	// Stage 1 has returned, so its send buffers are free to carry stage 2.
	fwd := resetParts(&m.scr.pushParts, mesh.Cols)
	at := slices.Grow(m.scr.fwdAt[:0], mesh.Cols)[:mesh.Cols]
	m.scr.fwdAt = at
	eachRun(viaCol, runs, func(i int, parts [][]pushMsg) {
		openRun(fwd, at, i == runs-1)
		for _, part := range parts {
			for _, msg := range part {
				col := mesh.ColOf(layout.Owner(msg.Dst))
				fwd[col] = append(fwd[col], msg)
			}
		}
		if i < runs-1 {
			closeRun(fwd, at)
		}
	})
	recv, rowErr := comm.Alltoallv(m.r.RowC, fwd)
	if colErr != nil {
		return nil, colErr
	}
	return recv, rowErr
}

// epilogue is step 3: per-plane frontier advance and ONE world allreduce
// agreeing every live query's active-L count plus the iteration's observed
// data-plane bytes (the recorder delta since iteration start, i.e. kernel +
// sync traffic; the epilogue collective itself is not recorder-observed),
// followed by one found bit per target plane, set by the
// target's owner once the plane has visited it — a fixed Q+1+T-length
// vector, so the collective's size never depends on which queries have
// converged, and a batch without target queries ships the Q+1 words it
// always did. The byte total feeds the next iteration's dense-vs-sparse
// choice; summing it globally keeps the choice identical on every rank. All
// of it is committed only on success, so a retried epilogue cannot leave
// ranks disagreeing.
func (m *multiState) epilogue() error {
	vec := make([]int64, len(m.planes)+1+m.targets)
	for q, p := range m.planes {
		if *p.doneIter < 0 { // this iteration's activations become the next frontier
			p.hubFrontier.CopyFrom(p.hubIter)
			p.hubIter.Reset()
			p.lFrontier.CopyFrom(p.lNew)
			p.lVisited.Or(p.lNew)
			p.lNew.Reset()
			vec[q] = int64(p.lFrontier.Count())
			if p.foundSlot >= 0 && p.seesTarget() {
				vec[p.foundSlot] = 1
			}
		}
	}
	vec[len(m.planes)] = commBytes(m.rec) - m.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(m.r.World, vec)
	if err == nil {
		m.pendAL = sums
		m.lastIterBytes = sums[len(m.planes)]
	}
	return err
}

// endIter commits the epilogue's agreed counts. A query converges when no hub
// and no L vertex was newly discovered, and a target query also when its
// target was: BFS here is level-synchronous, so a vertex's level and parent
// are final in the iteration that discovers it (a hub's parent once the
// delayed reduction, which every plane takes part in, has run).
func (m *multiState) endIter(it *IterTrace) bool {
	all := true
	for q, p := range m.planes {
		if *p.doneIter >= 0 {
			continue
		}
		*p.activeL = m.pendAL[q]
		*p.visitL += *p.activeL
		if *p.activeL == 0 && p.hubFrontier.Count() == 0 || p.foundSlot >= 0 && m.pendAL[p.foundSlot] > 0 {
			*p.doneIter = m.curIter
		} else {
			all = false
		}
	}
	return all
}

// finalize is the delayed reduction of the delegated parent arrays
// (Section 5): ONE world-wide max-reduce over the Q stacked arrays after the
// run instead of per-iteration, per-query traffic, observed as PhaseReduce.
func (m *multiState) finalize() error {
	return m.observeCollective(stats.PhaseReduce, trace.KindReduce, "reduce_parents", func() error {
		if m.k == 0 {
			return nil
		}
		return comm.AllreduceMaxInt64(m.r.World, m.pHubAll[:len(m.planes)*m.k])
	})
}

// Query is one traversal request: the BFS tree rooted at Root, or, when
// Target is non-negative, only Target's place in that tree — its level and
// its parent.
type Query struct{ Root, Target int64 }

// keyShift places a target query's Target+1 above its root in a query key.
const keyShift = 32

// Key packs q into the one int64 per query that RunBatch takes, so whatever
// forwards a RunBatch call (the daemon's batcher, a timing or counting
// wrapper) carries target queries without knowing of them. A full-tree
// query's key is its root; a target query's holds Root in the low 32 bits
// and Target+1 above them. Packing needs Root < 2^32 and Target < 2^31-1, and
// RunBatch unpacks keys only on graphs of at most 2^32 vertices.
func (q Query) Key() int64 {
	if q.Target < 0 {
		return q.Root
	}
	return (q.Target+1)<<keyShift | q.Root
}

// queryOf is Key's inverse on a graph of n vertices.
func queryOf(key, n int64) Query {
	if key < 1<<keyShift || n > 1<<keyShift {
		return Query{Root: key, Target: -1}
	}
	return Query{Root: key & (1<<keyShift - 1), Target: key>>keyShift - 1}
}

// BatchResult is one batched multi-source sweep's output: per-query results
// bit-identical to separate runs, plus batch-level occupancy and accounting.
type BatchResult struct {
	Roots []int64
	// Queries holds one Result per query, aligned with Roots. Each query's
	// answer, Iterations, Trace and TraversedEdges are its own; Time is the
	// shared sweep wall time (queries co-ran), so per-query latency is a
	// service-layer measurement, not derivable from these.
	Queries []*Result
	// Iterations is the sweep's iteration count — the depth of the slowest
	// query (re-executed iterations only, on a run resumed via SetResumeFrom).
	Iterations int
	// AvgOccupancy is the mean number of live (unconverged) queries per
	// sweep iteration: len(Roots) at full amortization; 1.0 means the batch
	// degenerated to one query's cost.
	AvgOccupancy float64
	// Trace aggregates the batch per iteration: summed frontier composition,
	// per-component direction when every live query agreed (DirNone when
	// mixed), OR of the sparse choices.
	Trace []IterTrace
	RunRecord
}

// RunBatch is RunQueries over query keys (see Query.Key). A plain root is
// the key of its full-tree query, so RunBatch(roots) traverses every root to
// convergence and returns each one's parent array.
func (e *Engine) RunBatch(keys []int64) (*BatchResult, error) {
	qs := make([]Query, len(keys))
	for i, k := range keys {
		qs[i] = queryOf(k, e.Part.Layout.N)
	}
	return e.RunQueries(qs)
}

// RunQueries traverses all queries in one batched multi-source sweep and
// assembles per-query results bit-identical to separate Run calls: a
// full-tree query gets Run's Parent array, a target query the same tree's
// TargetParent and TargetLevel and no Parent array at all. A target query's
// plane leaves the sweep at the end of the iteration that visits its target,
// or when its frontier empties; one whose target is its root or has degree 0
// needs no plane, and a batch of only such queries runs nothing.
//
// Under a fault transport the run may fail even after retries; the result is
// still returned alongside the error so callers can inspect the fault and
// retry accounting of the doomed run.
//
// A fail-stop (a Kill fault) does not fail the run when CheckpointDir is set:
// the engine detects the agreed-dead ranks, rebuilds the world as a new epoch
// (Options.Recovery selects shrink vs restore), replays every rank from the
// latest complete checkpoint and continues, recording the cost in Recovery.
// With checkpointing off, recovery degrades to a full restart of the
// traversal under the new world.
//
// Each query's Iterations is its absolute depth — for a target query the
// depth at which its answer was fixed — and its Trace is stitched across
// world epochs on the absolute iteration axis, so len(Trace) == Iterations —
// except on a run resumed from another engine's scope (SetResumeFrom), whose
// traces start past the checkpoint.
func (e *Engine) RunQueries(qs []Query) (*BatchResult, error) {
	n := e.Part.Layout.N
	if len(qs) == 0 {
		return nil, fmt.Errorf("core: RunBatch needs at least one root")
	}
	if len(qs) > maxBatchWidth {
		return nil, fmt.Errorf("core: batch of %d queries exceeds the %d cap", len(qs), maxBatchWidth)
	}
	br := &BatchResult{Roots: make([]int64, len(qs)), Queries: make([]*Result, len(qs))}
	var planes []Query
	var planeOf []int // the query each plane answers
	for i, q := range qs {
		if q.Root < 0 || q.Root >= n {
			return nil, fmt.Errorf("core: root %d out of [0,%d)", q.Root, n)
		}
		if q.Target >= n {
			return nil, fmt.Errorf("core: target %d out of [0,%d)", q.Target, n)
		}
		q.Target = max(q.Target, -1)
		res := &Result{Root: q.Root, Target: q.Target, TargetParent: -1, TargetLevel: -1}
		br.Roots[i], br.Queries[i] = q.Root, res
		switch {
		case q.Target == q.Root:
			res.TargetParent, res.TargetLevel = q.Root, 0
		case q.Target < 0 || e.Part.Degrees[q.Target] > 0:
			planes, planeOf = append(planes, q), append(planeOf, i)
		}
	}
	if len(planes) == 0 {
		br.Recorder = &stats.Recorder{}
		for _, res := range br.Queries {
			res.RunRecord = br.RunRecord
		}
		return br, nil
	}
	nq := len(planes)
	rc, err := e.execute(fmt.Sprintf("batch%d", nq),
		map[string]int64{"queries": int64(nq)},
		func(e *Engine, r *comm.Rank) *valueBase { return &newMultiState(e, r, planes).valueBase })
	if err != nil {
		return nil, err
	}
	br.Iterations, br.Trace, br.RunRecord = len(rc.trace), rc.trace, rc.RunRecord
	out := make([]*Result, nq) // per plane
	for q, i := range planeOf {
		out[q] = br.Queries[i]
	}
	for _, res := range br.Queries {
		res.RunRecord = rc.RunRecord
	}
	e.assemble(rc, out)
	liveIters := 0
	for _, it := range rc.trace {
		for _, qi := range it.queries {
			out[qi.qid].Trace = append(out[qi.qid].Trace, qi.it)
		}
		liveIters += len(it.queries)
	}
	for _, res := range out {
		res.Iterations = len(res.Trace)
	}
	// A converged query knows its absolute depth even when this engine
	// resumed it past the iterations its trace covers; a reached target's
	// plane converged in the iteration that visited it.
	hosted(rc, func(m *multiState) {
		for q, p := range m.planes {
			if di := *p.doneIter; di >= 0 {
				out[q].Iterations = int(di) + 1
				if out[q].Target >= 0 && out[q].TargetParent >= 0 {
					out[q].TargetLevel = di + 1
				}
			}
		}
	})
	if br.Iterations > 0 {
		br.AvgOccupancy = float64(liveIters) / float64(br.Iterations)
	}
	return br, rc.err
}
