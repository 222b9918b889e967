package core

import (
	"fmt"
	"time"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file implements the batched multi-source BFS path: one iteration
// sweep traverses Q independent queries at once, with one bit-plane per
// query stacked over contiguous backings so every collective — hub syncs,
// dense exchanges, sparse flushes, frontier gathers, the epilogue allreduce
// and the delayed parent reduction — is issued once per exchange point for
// the whole batch instead of once per query.
//
// The correctness contract is bit-exactness against solo runs: a batch of K
// roots produces, per query, exactly the parents K independent Engine.Run
// calls produce. It holds because (a) every per-query schedule decision
// (direction, sparse, skip) is computed by the solo code path from that
// query's own globally consistent counts, (b) remote kernels generate
// messages through the same gen loop bodies as the solo kernels (kernels.go)
// and receivers apply each query's stream in the same member-major order,
// and (c) the one schedule input that IS batch-global — the previous
// iteration's byte feedback, fed identically to every plane — can only move
// a component between its dense and sparse exchange forms, which are
// bit-equal by the established dense/sparse contract. SegmentAdaptive is the
// single exception (its timing-driven pull variants may legitimately pick
// different parents), so RunBatch rejects it.

// Backing indices of the stacked hub and L bit-planes.
const (
	hubFIdx = iota // hubFrontier
	hubVIdx        // hubVisited
	hubNIdx        // hubNew
	hubIIdx        // hubIter
	numHubPlanes
)

const (
	lFIdx = iota // lFrontier
	lVIdx        // lVisited
	lNIdx        // lNew
	numLPlanes
)

// qidTagShift packs (query id, component) into a sparse-update tag: the low
// bits carry the component (NumComponents = 6 fits in 3 bits), the rest the
// query id. A batch is capped well below the 2^28 ids an int32 tag can hold.
const qidTagShift = 3

func qidTag(q int, c partition.Component) int32 {
	return int32(q)<<qidTagShift | int32(c)
}

// maxBatchWidth bounds RunBatch's query count; real batches are far smaller
// (the daemon's admission control sizes them from perfmodel memory math).
const maxBatchWidth = 1 << 20

// Qid-tagged forms of the dense exchange messages (kernels.go): one batched
// alltoallv carries every query's payload, and receivers split by Qid back
// into per-query streams.
type mlMsg struct {
	Qid    int32
	LIdx   int32
	Parent int64
}

type mhubMsg struct {
	Qid    int32
	Hub    int32
	Parent int64
}

type ml2lMsg struct {
	Qid    int32
	Dst    int64
	Parent int64
}

// multiState is the batched multi-source workload: Q rankState planes whose
// bitmaps are views over contiguous per-kind backings, driven through the
// same four-step retryable iteration skeleton (driver.runLoop) as every solo
// workload — so step-granular retry, checkpointing, drain and fail-stop
// epoch recovery all apply to a batch unchanged.
type multiState struct {
	driver

	roots []int64
	nq    int // query count
	hubK  int // hubs per plane

	planes   []*rankState
	done     []bool  // per query: converged in an earlier iteration
	doneIter []int64 // per query: absolute iteration it converged at (-1 live)
	its      []IterTrace
	hist     [][]IterTrace

	hubPl [numHubPlanes]*bitmap.Planes
	lPl   [numLPlanes]*bitmap.Planes

	// pHubAll holds the Q stacked delegate parent arrays (Q*hubK) followed by
	// a 3-slot-per-query tail (activeL, visitL, doneIter) refreshed by ckpt()
	// — the whole thing IS the checkpoint's pHub array, so batched capture
	// and replay ride the existing writer geometry with zero extra copies.
	pHubAll []int64
	pLAll   []int64 // Q stacked owned-L parent arrays (Q*PerRank)

	// scratch for the batched pull-frontier gathers
	sendWords []uint64
	recvWords []uint64

	snaps [numSteps]multiSnapshot
}

type multiSnapshot struct {
	hub             [numHubPlanes][]uint64
	l               [numLPlanes][]uint64
	activeL, visitL []int64
}

func newMultiState(e *Engine, r *comm.Rank, roots []int64) *multiState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	nq := len(roots)
	m := &multiState{
		driver:   newDriver(e, r, e.Opt.MaxIterations),
		roots:    roots,
		nq:       nq,
		hubK:     k,
		planes:   make([]*rankState, nq),
		done:     make([]bool, nq),
		doneIter: make([]int64, nq),
		its:      make([]IterTrace, nq),
		hist:     make([][]IterTrace, nq),
		pHubAll:  make([]int64, nq*k+3*nq),
		pLAll:    make([]int64, nq*per),
	}
	for i := range m.hubPl {
		m.hubPl[i] = bitmap.NewPlanes(nq, k)
	}
	for i := range m.lPl {
		m.lPl[i] = bitmap.NewPlanes(nq, per)
	}
	for i := 0; i < nq*k; i++ {
		m.pHubAll[i] = -1
	}
	for i := range m.pLAll {
		m.pLAll[i] = -1
	}
	for q, root := range roots {
		m.doneIter[q] = -1
		m.pHubAll[nq*k+3*q+2] = -1
		p := &rankState{
			driver:      newDriver(e, r, e.Opt.MaxIterations),
			root:        root,
			k:           k,
			numE:        int64(e.Part.Hubs.NumE),
			numL:        e.Part.Layout.N - int64(k),
			hubFrontier: m.hubPl[hubFIdx].Plane(q),
			hubVisited:  m.hubPl[hubVIdx].Plane(q),
			hubNew:      m.hubPl[hubNIdx].Plane(q),
			hubIter:     m.hubPl[hubIIdx].Plane(q),
			parentHub:   m.pHubAll[q*k : (q+1)*k : (q+1)*k],
			lFrontier:   m.lPl[lFIdx].Plane(q),
			lVisited:    m.lPl[lVIdx].Plane(q),
			lNew:        m.lPl[lNIdx].Plane(q),
			parentL:     m.pLAll[q*per : (q+1)*per : (q+1)*per],
			scr:         &e.scratch[r.ID],
		}
		// Planes share the batch driver's recorder (one merged breakdown per
		// rank) and emit no spans of their own — the batch driver's per-
		// iteration "batch_iter" span and per-exchange kernel spans are the
		// timeline. Everything else about a plane driver (rank, rank graph,
		// sparse latches) behaves exactly as in a solo run.
		p.driver.rec = m.driver.rec
		p.driver.tr = nil
		m.planes[q] = p
	}
	return m
}

func (m *multiState) drv() *driver { return &m.driver }

// bootstrap seeds every plane's root exactly as the solo bootstrap does,
// including the per-query control-plane count agreement (fault-exempt, so
// the loop adds no data-plane collectives).
func (m *multiState) bootstrap() error {
	layout := m.e.Part.Layout
	hubs := m.e.Part.Hubs
	for _, p := range m.planes {
		root := p.root
		if h, ok := hubs.HubOf(root); ok {
			p.hubFrontier.Set(int(h))
			p.hubVisited.Set(int(h))
			p.parentHub[h] = root
		} else if layout.Owner(root) == m.r.ID {
			li := layout.LocalIdx(root)
			p.lFrontier.Set(int(li))
			p.lVisited.Set(int(li))
			p.parentL[li] = root
			p.activeL = 1
			p.visitL = 1
		}
		p.activeL = comm.ControlSumInt64(m.r.World, p.activeL)
		p.visitL = comm.ControlSumInt64(m.r.World, p.visitL)
	}
	return nil
}

// beginIter latches every live plane's schedule through the solo decision
// path (each plane sees its own counts plus the shared batch-global byte
// feedback), freezes converged planes to all-skip, and aggregates the
// batch-level IterTrace the driver loop records.
func (m *multiState) beginIter(it *IterTrace) {
	var s0 int64
	if m.tr != nil {
		s0 = m.tr.Now()
	}
	live := 0
	for q, p := range m.planes {
		if m.done[q] {
			m.its[q] = IterTrace{}
			for c := range m.its[q].Directions {
				m.its[q].Directions[c] = stats.DirSkip
			}
			continue
		}
		live++
		p.lastIterBytes = m.lastIterBytes
		p.beginIter(&m.its[q])
	}
	*it = IterTrace{}
	for c := range it.Directions {
		it.Directions[c] = stats.DirSkip
	}
	for q := range m.planes {
		if m.done[q] {
			continue
		}
		pt := &m.its[q]
		it.ActiveE += pt.ActiveE
		it.ActiveH += pt.ActiveH
		it.ActiveL += pt.ActiveL
		for c := range it.Directions {
			if pt.Sparse[c] {
				it.Sparse[c] = true
			}
			d := pt.Directions[c]
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
		m.tr.Emit(trace.Span{Kind: trace.KindBatch, Epoch: m.r.Epoch(),
			Iter: m.curIter, Step: -1, Name: "batch_iter",
			Start: s0, Dur: m.tr.Now() - s0,
			Args: map[string]int64{
				"queries": int64(m.nq),
				"live":    int64(live),
				"done":    int64(m.nq - live),
			}})
	}
}

// anyLive reports whether any unconverged plane's latched schedule satisfies
// pred — the batch's collective-participation predicate. Every input is
// globally consistent, so all ranks agree on every exchange decision.
func (m *multiState) anyLive(pred func(t *IterTrace) bool) bool {
	for q := range m.planes {
		if !m.done[q] && pred(&m.its[q]) {
			return true
		}
	}
	return false
}

// runLocal executes a component whose kernels are rank-local for every live
// plane under its latched direction, in query order.
func (m *multiState) runLocal(c partition.Component, firstErr *error, fn func(p *rankState, dir stats.Direction) (int64, error)) {
	for q, p := range m.planes {
		if m.done[q] {
			continue
		}
		dir := m.its[q].Directions[c]
		err := p.runComp(c, dir, func() (int64, error) { return fn(p, dir) })
		if *firstErr == nil {
			*firstErr = err
		}
	}
}

// observeExchange runs one batched exchange under the batch driver's
// recorder and span stream, attributed to the component's phase exactly as
// the solo kernel that would have carried it.
func (m *multiState) observeExchange(c partition.Component, dir stats.Direction, fn func() error) error {
	m.r.SetTag(int(c))
	return m.observe(c, dir, func() (int64, error) { return 0, fn() })
}

func (m *multiState) step(g int, it *IterTrace) error {
	switch g {
	case 0:
		return m.step0()
	case 1:
		return m.step1()
	case 2:
		return m.step2()
	default:
		return m.step3()
	}
}

// step0: per-plane EH2EH (always rank-local), then one hub sync for the
// whole batch if any plane's schedule needs it.
func (m *multiState) step0() error {
	var firstErr error
	m.runLocal(partition.CompEH2EH, &firstErr, func(p *rankState, dir stats.Direction) (int64, error) {
		if dir == stats.DirPush {
			return p.ehPush()
		}
		if m.e.Opt.Segmented {
			return p.ehPullSegmented()
		}
		return p.ehPull()
	})
	if m.anyLive(func(t *IterTrace) bool { return t.Directions[partition.CompEH2EH] != stats.DirSkip }) {
		if err := m.syncHubsAll(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// syncHubsAll merges every plane's hub activations in ONE column+row
// allreduce pair over the contiguous hubNew backing, then folds each plane
// exactly as the solo sync does. Planes whose schedule would have elided the
// solo sync contribute all-zero words and a no-op fold, so the shared
// collective cannot perturb them.
func (m *multiState) syncHubsAll() error {
	err := syncHubWords(&m.driver, m.hubPl[hubNIdx].Words(), "hub_sync")
	for _, p := range m.planes {
		p.hubNew.AndNot(p.hubVisited)
		p.hubIter.Or(p.hubNew)
		p.hubVisited.Or(p.hubNew)
		p.hubNew.Reset()
	}
	return err
}

// step1 runs the four hub<->L components. Local kernels run per plane; the
// remote H2L and L2H pushes generate through the shared gen loops into
// qid-tagged buffers and ride at most one row alltoallv each, every sparse
// update of both components rides one row allgather at the L2H flush point,
// and all pulling planes' frontiers ship in one row gather. Deferring the
// sparse H2L applies to the flush is safe for the same reason the solo
// batched row exchange is: the kernels between generation and flush (L2E,
// L2H) read only lFrontier and the hub bitmaps, never lNew or parentL.
func (m *multiState) step1() error {
	var firstErr error
	collect := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	m.pendRow = m.pendRow[:0]
	cols := m.e.Opt.Mesh.Cols

	m.runLocal(partition.CompE2L, &firstErr, func(p *rankState, dir stats.Direction) (int64, error) {
		if dir == stats.DirPush {
			return p.e2lPush()
		}
		return p.e2lPull()
	})

	// H2L: gen per plane (H2L pull is rank-local, so it runs inline).
	h2lSend := make([][]mlMsg, cols)
	for q, p := range m.planes {
		if m.done[q] {
			continue
		}
		q := q
		dir := m.its[q].Directions[partition.CompH2L]
		sparse := m.its[q].Sparse[partition.CompH2L]
		err := p.runComp(partition.CompH2L, dir, func() (int64, error) {
			switch {
			case dir != stats.DirPush:
				return p.h2lPull()
			case sparse:
				return p.h2lGen(func(col, li int32, parent int64) {
					m.pendRow = append(m.pendRow, comm.SparseUpdate{Dst: col,
						Tag: qidTag(q, partition.CompH2L), Off: int64(li), Val: parent})
				}), nil
			default:
				return p.h2lGen(func(col, li int32, parent int64) {
					h2lSend[col] = append(h2lSend[col], mlMsg{Qid: int32(q), LIdx: li, Parent: parent})
				}), nil
			}
		})
		collect(err)
	}
	if m.anyLive(func(t *IterTrace) bool {
		return t.Directions[partition.CompH2L] == stats.DirPush && !t.Sparse[partition.CompH2L]
	}) {
		collect(m.observeExchange(partition.CompH2L, stats.DirPush, func() error {
			recv, err := comm.Alltoallv(m.r.RowC, h2lSend)
			if err != nil {
				return err
			}
			m.applyLPlanes(recv)
			return nil
		}))
	}

	m.runLocal(partition.CompL2E, &firstErr, func(p *rankState, dir stats.Direction) (int64, error) {
		if dir == stats.DirPush {
			return p.l2ePush()
		}
		return p.l2ePull()
	})

	// L2H: gen for pushing planes; pulls are deferred past the shared gather.
	l2hSend := make([][]mhubMsg, cols)
	for q, p := range m.planes {
		if m.done[q] || m.its[q].Directions[partition.CompL2H] == stats.DirPull {
			continue
		}
		q := q
		dir := m.its[q].Directions[partition.CompL2H]
		sparse := m.its[q].Sparse[partition.CompL2H]
		err := p.runComp(partition.CompL2H, dir, func() (int64, error) {
			if sparse {
				return p.l2hGen(func(col, hub int32, parent int64) {
					m.pendRow = append(m.pendRow, comm.SparseUpdate{Dst: col,
						Tag: qidTag(q, partition.CompL2H), Off: int64(hub), Val: parent})
				}), nil
			}
			return p.l2hGen(func(col, hub int32, parent int64) {
				l2hSend[col] = append(l2hSend[col], mhubMsg{Qid: int32(q), Hub: hub, Parent: parent})
			}), nil
		})
		collect(err)
	}
	if m.anyLive(func(t *IterTrace) bool {
		return t.Directions[partition.CompL2H] == stats.DirPush && !t.Sparse[partition.CompL2H]
	}) {
		collect(m.observeExchange(partition.CompL2H, stats.DirPush, func() error {
			recv, err := comm.Alltoallv(m.r.RowC, l2hSend)
			if err != nil {
				return err
			}
			m.applyHubPlanes(recv)
			return nil
		}))
	}
	l2hPullQs := m.pullPlanes(partition.CompL2H)
	if len(l2hPullQs) > 0 {
		per := int(m.e.Part.Layout.PerRank)
		gerr := m.gatherPlanes(m.r.RowC, partition.CompL2H, l2hPullQs, func(p *rankState) *bitmap.Bitmap {
			if p.rowFrontier == nil {
				p.rowFrontier = bitmap.New(per * cols)
			}
			return p.rowFrontier
		})
		collect(gerr)
		if gerr == nil {
			for _, q := range l2hPullQs {
				p := m.planes[q]
				collect(p.runComp(partition.CompL2H, stats.DirPull, func() (int64, error) {
					return p.l2hPullScan(), nil
				}))
			}
		}
	}
	if m.anyLive(func(t *IterTrace) bool {
		return t.Sparse[partition.CompH2L] || t.Sparse[partition.CompL2H]
	}) {
		ups := m.pendRow
		m.pendRow = m.pendRow[:0]
		collect(m.observeExchange(partition.CompL2H, stats.DirPush, func() error {
			out, err := comm.AllgatherSparse(m.r.RowC, ups)
			if err != nil {
				return err
			}
			m.applySparseRowPlanes(out)
			return nil
		}))
	}

	if m.anyLive(func(t *IterTrace) bool {
		return t.Directions[partition.CompL2E] != stats.DirSkip ||
			t.Directions[partition.CompL2H] != stats.DirSkip
	}) {
		if err := m.syncHubsAll(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// pullPlanes lists the live planes whose latched direction for c is pull, in
// query order — the globally consistent participant set of a batched gather.
func (m *multiState) pullPlanes(c partition.Component) []int {
	var qs []int
	for q := range m.planes {
		if !m.done[q] && m.its[q].Directions[c] == stats.DirPull {
			qs = append(qs, q)
		}
	}
	return qs
}

// step2 runs L2L: pushing planes generate qid-tagged messages into one flat
// world alltoallv (or the two-stage hierarchical forward), sparse planes
// into one world allgather, and pulling planes share one world frontier
// gather.
func (m *multiState) step2() error {
	var firstErr error
	collect := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	layout := m.e.Part.Layout
	mesh := m.e.Opt.Mesh

	if m.e.Opt.Hierarchical {
		// Hierarchical L2L is always dense (pickSparse keeps it so); the
		// qid rides inside the message through both forwarding stages.
		sendRow := make([][]ml2lMsg, mesh.Rows)
		for q, p := range m.planes {
			if m.done[q] || m.its[q].Directions[partition.CompL2L] == stats.DirPull {
				continue
			}
			q := q
			dir := m.its[q].Directions[partition.CompL2L]
			collect(p.runComp(partition.CompL2L, dir, func() (int64, error) {
				return p.l2lGenRows(func(row int, dst, parent int64) {
					sendRow[row] = append(sendRow[row], ml2lMsg{Qid: int32(q), Dst: dst, Parent: parent})
				}), nil
			}))
		}
		if m.anyLive(func(t *IterTrace) bool {
			return t.Directions[partition.CompL2L] == stats.DirPush
		}) {
			collect(m.observeExchange(partition.CompL2L, stats.DirPush, func() error {
				viaCol, colErr := comm.Alltoallv(m.r.ColC, sendRow)
				// Stage 2 always runs, exactly as solo: the row communicator's
				// schedule must match on every rank even when stage 1 failed.
				sendCol := make([][]ml2lMsg, mesh.Cols)
				for _, part := range viaCol {
					for _, msg := range part {
						col := mesh.ColOf(layout.Owner(msg.Dst))
						sendCol[col] = append(sendCol[col], msg)
					}
				}
				recv, rowErr := comm.Alltoallv(m.r.RowC, sendCol)
				if colErr != nil {
					return colErr
				}
				if rowErr != nil {
					return rowErr
				}
				m.applyL2LPlanes(recv)
				return nil
			}))
		}
	} else {
		send := make([][]ml2lMsg, layout.P)
		var ups []comm.SparseUpdate
		for q, p := range m.planes {
			if m.done[q] || m.its[q].Directions[partition.CompL2L] == stats.DirPull {
				continue
			}
			q := q
			dir := m.its[q].Directions[partition.CompL2L]
			sparse := m.its[q].Sparse[partition.CompL2L]
			collect(p.runComp(partition.CompL2L, dir, func() (int64, error) {
				if sparse {
					return p.l2lGenFlat(func(owner int, dst, parent int64) {
						ups = append(ups, comm.SparseUpdate{Dst: int32(owner),
							Tag: qidTag(q, partition.CompL2L), Off: dst, Val: parent})
					}), nil
				}
				return p.l2lGenFlat(func(owner int, dst, parent int64) {
					send[owner] = append(send[owner], ml2lMsg{Qid: int32(q), Dst: dst, Parent: parent})
				}), nil
			}))
		}
		if m.anyLive(func(t *IterTrace) bool {
			return t.Directions[partition.CompL2L] == stats.DirPush && !t.Sparse[partition.CompL2L]
		}) {
			collect(m.observeExchange(partition.CompL2L, stats.DirPush, func() error {
				recv, err := comm.Alltoallv(m.r.World, send)
				if err != nil {
					return err
				}
				m.applyL2LPlanes(recv)
				return nil
			}))
		}
		if m.anyLive(func(t *IterTrace) bool { return t.Sparse[partition.CompL2L] }) {
			collect(m.observeExchange(partition.CompL2L, stats.DirPush, func() error {
				out, err := comm.AllgatherSparse(m.r.World, ups)
				if err != nil {
					return err
				}
				m.applySparseL2LPlanes(out)
				return nil
			}))
		}
	}

	pullQs := m.pullPlanes(partition.CompL2L)
	if len(pullQs) > 0 {
		per := int(layout.PerRank)
		gerr := m.gatherPlanes(m.r.World, partition.CompL2L, pullQs, func(p *rankState) *bitmap.Bitmap {
			if p.worldFrontier == nil {
				p.worldFrontier = bitmap.New(per * layout.P)
			}
			return p.worldFrontier
		})
		collect(gerr)
		if gerr == nil {
			for _, q := range pullQs {
				p := m.planes[q]
				collect(p.runComp(partition.CompL2L, stats.DirPull, func() (int64, error) {
					return p.l2lPullScan(), nil
				}))
			}
		}
	}
	return firstErr
}

// step3 is the batched epilogue: per-plane frontier advance, one optional
// immediate parent reduction over the stacked delegate arrays, and ONE
// world allreduce agreeing every live query's active-L count plus the shared
// byte feedback (a fixed Q+1-length vector, so the collective's size never
// depends on which queries have converged).
func (m *multiState) step3() error {
	var firstErr error
	m.r.SetTag(TagEpilogue)
	for q, p := range m.planes {
		if m.done[q] {
			continue
		}
		p.hubFrontier.CopyFrom(p.hubIter)
		p.hubIter.Reset()
		p.lFrontier.CopyFrom(p.lNew)
		p.lVisited.Or(p.lNew)
		p.lNew.Reset()
	}
	if m.e.Opt.ImmediateParentReduction {
		m.r.SetTag(TagReduce)
		// Converged planes' parents are already globally agreed; re-reducing
		// them is idempotent, and one fixed-size reduce keeps the schedule
		// independent of the done set.
		if err := reduceMaxParents(&m.driver, m.pHubAll[:m.nq*m.hubK]); firstErr == nil {
			firstErr = err
		}
		m.r.SetTag(TagEpilogue)
	}
	vec := make([]int64, m.nq+1)
	for q, p := range m.planes {
		if m.done[q] {
			continue
		}
		p.pendNewHubs = int64(p.hubFrontier.Count())
		vec[q] = int64(p.lFrontier.Count())
	}
	vec[m.nq] = commBytes(m.rec) - m.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(m.r.World, vec)
	if firstErr == nil {
		firstErr = err
	}
	if err == nil {
		for q, p := range m.planes {
			if m.done[q] {
				continue
			}
			p.pendAL = sums[q]
		}
		m.lastIterBytes = sums[m.nq]
	}
	return firstErr
}

func (m *multiState) endIter(it *IterTrace) bool {
	all := true
	for q, p := range m.planes {
		if m.done[q] {
			continue
		}
		m.hist[q] = append(m.hist[q], m.its[q])
		if p.endIter(&m.its[q]) {
			m.done[q] = true
			m.doneIter[q] = m.curIter
		} else {
			all = false
		}
	}
	return all
}

// finalize is the delayed parent reduction for the whole batch: ONE
// world-wide max-reduce over the Q stacked delegate arrays instead of Q
// separate reduces.
func (m *multiState) finalize() error {
	return reduceMaxParents(&m.driver, m.pHubAll[:m.nq*m.hubK])
}

func snapRaw(dst *[]uint64, w []uint64) {
	if cap(*dst) < len(w) {
		*dst = make([]uint64, len(w))
	}
	*dst = (*dst)[:len(w)]
	copy(*dst, w)
}

func (m *multiState) snapshot(g int) {
	s := &m.snaps[g]
	for i := range m.hubPl {
		snapRaw(&s.hub[i], m.hubPl[i].Words())
	}
	for i := range m.lPl {
		snapRaw(&s.l[i], m.lPl[i].Words())
	}
	if s.activeL == nil {
		s.activeL = make([]int64, m.nq)
		s.visitL = make([]int64, m.nq)
	}
	for q, p := range m.planes {
		s.activeL[q] = p.activeL
		s.visitL[q] = p.visitL
	}
}

func (m *multiState) restore(g int) {
	s := &m.snaps[g]
	for i := range m.hubPl {
		copy(m.hubPl[i].Words(), s.hub[i])
	}
	for i := range m.lPl {
		copy(m.lPl[i].Words(), s.l[i])
	}
	for q, p := range m.planes {
		p.activeL = s.activeL[q]
		p.visitL = s.visitL[q]
	}
}

// ckpt maps the batch onto the writer's fixed geometry: the stacked bitmap
// backings are the word arrays, and the stacked parent arrays (with the
// per-query scalar tail refreshed here) are the int64 arrays. hubNew,
// hubIter and lNew are empty at every capture point, exactly as solo.
func (m *multiState) ckpt() ckptSlices {
	t := m.nq * m.hubK
	var sumA, sumV int64
	for q, p := range m.planes {
		m.pHubAll[t+3*q] = p.activeL
		m.pHubAll[t+3*q+1] = p.visitL
		m.pHubAll[t+3*q+2] = m.doneIter[q]
		sumA += p.activeL
		sumV += p.visitL
	}
	return ckptSlices{
		hubF: m.hubPl[hubFIdx].Words(), hubV: m.hubPl[hubVIdx].Words(),
		lF: m.lPl[lFIdx].Words(), lV: m.lPl[lVIdx].Words(),
		pHub: m.pHubAll, pL: m.pLAll,
		activeL: sumA, visitL: sumV,
	}
}

func (m *multiState) loadState(cs *checkpoint.State) {
	copy(m.hubPl[hubFIdx].Words(), cs.HubFrontier)
	copy(m.hubPl[hubVIdx].Words(), cs.HubVisited)
	copy(m.lPl[lFIdx].Words(), cs.LFrontier)
	copy(m.lPl[lVIdx].Words(), cs.LVisited)
	copy(m.pHubAll, cs.ParentHub)
	copy(m.pLAll, cs.ParentL)
	t := m.nq * m.hubK
	for q, p := range m.planes {
		p.activeL = m.pHubAll[t+3*q]
		p.visitL = m.pHubAll[t+3*q+1]
		m.doneIter[q] = m.pHubAll[t+3*q+2]
		m.done[q] = m.doneIter[q] >= 0
	}
}

// gatherPlanes ships the pulling planes' local L frontiers in one uniform
// allgather over c and scatters the member-major result into each plane's
// destination frontier (rowFrontier or worldFrontier), reproducing exactly
// what Q separate solo gathers would build.
func (m *multiState) gatherPlanes(c *comm.Comm, comp partition.Component, qs []int, dstOf func(p *rankState) *bitmap.Bitmap) error {
	lw := m.lPl[lFIdx].Stride()
	n := len(qs) * lw
	if cap(m.sendWords) < n {
		m.sendWords = make([]uint64, n)
	}
	send := m.sendWords[:n]
	for i, q := range qs {
		copy(send[i*lw:(i+1)*lw], m.planes[q].lFrontier.Words())
	}
	members := c.Size()
	rn := members * n
	if cap(m.recvWords) < rn {
		m.recvWords = make([]uint64, rn)
	}
	recv := m.recvWords[:rn]
	return m.observeExchange(comp, stats.DirPull, func() error {
		if err := comm.AllgathervUniform(c, send, recv); err != nil {
			return err
		}
		for i, q := range qs {
			dw := dstOf(m.planes[q]).Words()
			for j := 0; j < members; j++ {
				copy(dw[j*lw:(j+1)*lw], recv[j*n+i*lw:j*n+(i+1)*lw])
			}
		}
		return nil
	})
}

// applyLPlanes splits a qid-tagged receive into per-plane member-major parts
// and applies them plane by plane — each plane sees exactly the message
// sequence its solo exchange would deliver.
func (m *multiState) applyLPlanes(recv [][]mlMsg) {
	parts := make([][]lMsg, len(recv))
	for q, p := range m.planes {
		qid := int32(q)
		any := false
		for j, part := range recv {
			parts[j] = parts[j][:0]
			for _, msg := range part {
				if msg.Qid == qid {
					parts[j] = append(parts[j], lMsg{LIdx: msg.LIdx, Parent: msg.Parent})
					any = true
				}
			}
		}
		if any {
			p.applyLMsgs(parts)
		}
	}
}

func (m *multiState) applyHubPlanes(recv [][]mhubMsg) {
	parts := make([][]hubMsg, len(recv))
	for q, p := range m.planes {
		qid := int32(q)
		any := false
		for j, part := range recv {
			parts[j] = parts[j][:0]
			for _, msg := range part {
				if msg.Qid == qid {
					parts[j] = append(parts[j], hubMsg{Hub: msg.Hub, Parent: msg.Parent})
					any = true
				}
			}
		}
		if any {
			p.applyHubMsgs(parts)
		}
	}
}

func (m *multiState) applyL2LPlanes(recv [][]ml2lMsg) {
	parts := make([][]l2lMsg, len(recv))
	for q, p := range m.planes {
		qid := int32(q)
		any := false
		for j, part := range recv {
			parts[j] = parts[j][:0]
			for _, msg := range part {
				if msg.Qid == qid {
					parts[j] = append(parts[j], l2lMsg{Dst: msg.Dst, Parent: msg.Parent})
					any = true
				}
			}
		}
		if any {
			p.applyL2L(parts)
		}
	}
}

// applySparseRowPlanes applies the combined row flush in the solo order:
// per plane, all H2L activations first, then all L2H delegate activations,
// each member-major with per-member generation order preserved.
func (m *multiState) applySparseRowPlanes(out [][]comm.SparseUpdate) {
	members := len(out)
	lParts := make([][]lMsg, members)
	hubParts := make([][]hubMsg, members)
	for q, p := range m.planes {
		anyL, anyHub := false, false
		for j, us := range out {
			lParts[j] = lParts[j][:0]
			hubParts[j] = hubParts[j][:0]
			for _, u := range us {
				if int(u.Tag>>qidTagShift) != q {
					continue
				}
				if partition.Component(u.Tag&(1<<qidTagShift-1)) == partition.CompH2L {
					lParts[j] = append(lParts[j], lMsg{LIdx: int32(u.Off), Parent: u.Val})
					anyL = true
				} else {
					hubParts[j] = append(hubParts[j], hubMsg{Hub: int32(u.Off), Parent: u.Val})
					anyHub = true
				}
			}
		}
		if anyL {
			p.applyLMsgs(lParts)
		}
		if anyHub {
			p.applyHubMsgs(hubParts)
		}
	}
}

func (m *multiState) applySparseL2LPlanes(out [][]comm.SparseUpdate) {
	parts := make([][]l2lMsg, len(out))
	for q, p := range m.planes {
		any := false
		for j, us := range out {
			parts[j] = parts[j][:0]
			for _, u := range us {
				if int(u.Tag>>qidTagShift) == q {
					parts[j] = append(parts[j], l2lMsg{Dst: u.Off, Parent: u.Val})
					any = true
				}
			}
		}
		if any {
			p.applyL2L(parts)
		}
	}
}

// BatchResult is one batched multi-source sweep's output: per-query results
// bit-identical to solo runs, plus batch-level occupancy and accounting.
type BatchResult struct {
	Roots []int64
	// Queries holds one Result per root, aligned with Roots. Each query's
	// Parent/Iterations/Trace/TraversedEdges are its own; Time is the shared
	// sweep wall time (queries co-ran), so per-query latency is a service-
	// layer measurement, not derivable from these.
	Queries []*Result
	// Iterations is the sweep's iteration count — the depth of the slowest
	// query (re-executed iterations only, on a resumed run).
	Iterations int
	Time       time.Duration
	// AvgOccupancy is the mean number of live (unconverged) queries per
	// sweep iteration: len(Roots) at full amortization; 1.0 means the batch
	// degenerated to solo cost.
	AvgOccupancy float64
	Recorder     *stats.Recorder
	PerRank      []*stats.Recorder
	// Trace aggregates the batch per iteration: summed frontier composition,
	// per-component direction when every live query agreed (DirNone when
	// mixed), OR of the sparse choices.
	Trace           []IterTrace
	Faults          comm.FaultStats
	Retries         int64
	RecoveryTime    time.Duration
	Recovery        stats.RecoveryStats
	CheckpointScope string
}

// TraversedEdges sums the queries' traversed-edge counts.
func (b *BatchResult) TraversedEdges() int64 {
	var sum int64
	for _, q := range b.Queries {
		if q != nil {
			sum += q.TraversedEdges
		}
	}
	return sum
}

// GTEPS is the batch's aggregate throughput: total traversed edges over the
// sweep's wall time, in giga units — the number a batched service sustains,
// directly comparable to the sum of solo runs' wall time for the same roots.
func (b *BatchResult) GTEPS() float64 {
	if b.Time <= 0 {
		return 0
	}
	return float64(b.TraversedEdges()) / b.Time.Seconds() / 1e9
}

// RunBatch traverses all roots in one batched multi-source sweep and
// assembles per-query results bit-identical to len(roots) solo Run calls.
// The whole sweep rides the shared driver loop, so step-granular retry,
// checkpoint capture, drain and fail-stop epoch recovery apply to a batch
// exactly as to a solo run. SegmentAdaptive engines are rejected: their
// timing-driven pull variants may legitimately discover different parents
// per run, which breaks the batch-vs-solo contract.
func (e *Engine) RunBatch(roots []int64) (*BatchResult, error) {
	n := e.Part.Layout.N
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: RunBatch needs at least one root")
	}
	if len(roots) > maxBatchWidth {
		return nil, fmt.Errorf("core: batch of %d queries exceeds the %d cap", len(roots), maxBatchWidth)
	}
	for _, root := range roots {
		if root < 0 || root >= n {
			return nil, fmt.Errorf("core: root %d out of [0,%d)", root, n)
		}
	}
	if e.Opt.SegmentAdaptive {
		return nil, fmt.Errorf("core: RunBatch does not support SegmentAdaptive (nondeterministic parent choice breaks the batch-vs-solo contract)")
	}
	nq := len(roots)
	rc, err := e.execute(fmt.Sprintf("batch%d", nq),
		map[string]int64{"queries": int64(nq)},
		func(e *Engine, r *comm.Rank) workload { return newMultiState(e, r, roots) })
	if err != nil {
		return nil, err
	}
	br := &BatchResult{
		Roots:           append([]int64(nil), roots...),
		Queries:         make([]*Result, nq),
		Iterations:      len(rc.trace),
		Time:            rc.time,
		Recorder:        rc.recorder,
		PerRank:         rc.perRank,
		Trace:           rc.trace,
		Faults:          rc.faults,
		Retries:         rc.retries,
		RecoveryTime:    rc.recoveryTime,
		Recovery:        rc.recovery,
		CheckpointScope: rc.scopeName,
	}
	for qi, root := range roots {
		br.Queries[qi] = &Result{
			Root:            root,
			Time:            rc.time,
			Recorder:        rc.recorder,
			Faults:          rc.faults,
			Retries:         rc.retries,
			RecoveryTime:    rc.recoveryTime,
			Recovery:        rc.recovery,
			CheckpointScope: rc.scopeName,
		}
	}
	e.assemble(rc, br.Queries, func(wl workload) []*rankState { return wl.(*multiState).planes })
	if rc.err == nil {
		var ref *multiState
		for _, wl := range rc.states {
			if wl != nil {
				ref = wl.(*multiState)
				break
			}
		}
		var liveIters int64
		for qi, qres := range br.Queries {
			if ref != nil {
				qres.Iterations = int(ref.doneIter[qi]) + 1
				qres.Trace = append([]IterTrace(nil), ref.hist[qi]...)
				liveIters += ref.doneIter[qi] + 1
			}
		}
		if br.Iterations > 0 {
			br.AvgOccupancy = float64(liveIters) / float64(br.Iterations)
		}
	}
	return br, rc.err
}
