package core

import (
	"math"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// ssspState is delta-bucketed single-source shortest path on the engine's
// fast path, under the deterministic Graph 500 weights (sssp.WeightOf). The
// dirty sets track vertices whose tentative distance improved since they last
// relaxed; each iteration relaxes the dirty vertices whose distance falls
// inside the current bucket ((bucket+1)*delta), shipping (distance, parent)
// relaxations through the six components. Hub distances are delegated:
// replicated per rank and min-merged column-then-row after each hub-relaxing
// step, with a deterministic tie-break (equal distance -> larger parent) so
// every replica folds to the identical value. When a whole iteration improves
// nothing, the bucket advances to the smallest bucket holding a dirty vertex;
// the run converges when nothing improved and nothing is dirty.
//
// What an iteration touches is what changed: base distances are latched for
// the relax set only, a hub re-enters the dirty set at the sync that makes
// its improvement global, and the epilogue's quiescence test is the
// iteration's count of successful relaxations.
type ssspState struct {
	valueBase

	root  int64
	seed  uint64
	delta float64

	hubDist, hubBaseD []float64
	hubParent         []int64
	lDist, lBaseD     []float64
	lParent           []int64

	hubDirty, lDirty *bitmap.Bitmap // improved since last relaxed
	relaxHub, relaxL *bitmap.Bitmap // this iteration's in-bucket relax set

	bucket  int64
	activeL int64 // global dirty-L count (sparse/skip proxy)

	relaxations, relaxBase int64 // successful lowerings so far / as of beginIter

	pendImproved, pendAL, pendNext int64

	// hubPack and lPack are the checkpointed form, [Float64bits(dist)... |
	// parent...], and the only storage: the distance and parent slices above
	// are views of their two halves, so a capture packs nothing.
	hubPack, lPack []int64
}

// distMsg relaxes one vertex: To is an L index at a known rank (H2L), a hub
// id (L2H and the delegate sync) or an original vertex id (L2L). On the
// sparse tail it travels as two adjacent records with the same destination,
// tag and offset — the distance bits, then the parent — and the receiver
// re-zips them in order, so the dense and sparse arms apply the identical
// relaxation sequence.
type distMsg struct {
	To     int64
	Dist   float64
	Parent int64
}

func (m distMsg) put(ups []comm.SparseUpdate, dst, tag int32) []comm.SparseUpdate {
	return append(ups,
		comm.SparseUpdate{Dst: dst, Tag: tag, Off: m.To, Val: int64(math.Float64bits(m.Dist))},
		comm.SparseUpdate{Dst: dst, Tag: tag, Off: m.To, Val: m.Parent})
}

func (distMsg) get(us []comm.SparseUpdate) (distMsg, int) {
	return distMsg{To: us[0].Off, Dist: math.Float64frombits(uint64(us[0].Val)), Parent: us[1].Val}, 2
}

func (distMsg) header(n int) distMsg { return distMsg{Parent: int64(n)} }
func (m distMsg) runLen() int        { return int(m.Parent) }

// newSSSPState declares the dirty sets, the packed (distance bits, parent)
// arrays, the dirty-L count and the bucket (on the VisitL scalar) as the
// persisted state; the relax sets are rebuilt by beginIter, so their bitmap
// slots carry no load. A retried step also rolls back the relaxation counter,
// which re-executed applies would count again.
func newSSSPState(e *Engine, r *comm.Rank, root int64, seed uint64, delta float64) *ssspState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &ssspState{
		valueBase: newValueBase(e, r),
		root:      root,
		seed:      seed,
		delta:     delta,
		hubBaseD:  make([]float64, k),
		lBaseD:    make([]float64, per),
		hubDirty:  bitmap.New(k),
		lDirty:    bitmap.New(per),
		relaxHub:  bitmap.New(k),
		relaxL:    bitmap.New(per),
		hubPack:   make([]int64, 2*k),
		lPack:     make([]int64, 2*per),
	}
	st.hubDist, st.hubParent = float64View(st.hubPack[:k]), st.hubPack[k:]
	st.lDist, st.lParent = float64View(st.lPack[:per]), st.lPack[per:]
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: [partition.NumComponents]func() (int64, error){
			st.ehRelax, st.e2lRelax, st.h2lRelax, st.l2eRelax, st.l2hRelax, st.l2lRelax}}},
		hubSync:  st.syncDists,
		epilogue: st.epilogue,
		hubF:     st.hubDirty.Words(), hubV: st.relaxHub.Words(),
		lF: st.lDirty.Words(), lV: st.relaxL.Words(),
		pHub: st.hubPack, pL: st.lPack,
		activeL: &st.activeL, visitL: &st.bucket,
		scalars: []*int64{&st.relaxations},
	})
	return st
}

// bootstrap seeds infinite distances everywhere and the root at zero in
// bucket zero; the root's placement is replicated (hub) or owner-local (L).
func (st *ssspState) bootstrap() error {
	for h := 0; h < st.k; h++ {
		st.hubDist[h] = math.Inf(1)
		st.hubParent[h] = -1
	}
	for li := range st.lDist {
		st.lDist[li] = math.Inf(1)
		st.lParent[li] = -1
	}
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	var al int64
	if h, ok := hubs.HubOf(st.root); ok {
		st.hubDist[h] = 0
		st.hubParent[h] = st.root
		st.hubDirty.Set(int(h))
	} else if layout.Owner(st.root) == st.r.ID {
		li := layout.LocalIdx(st.root)
		st.lDist[li] = 0
		st.lParent[li] = st.root
		st.lDirty.Set(int(li))
		al = 1
	}
	st.activeL = comm.ControlSumInt64(st.r.World, al)
	st.bucket = 0
	return nil
}

// beginIter carves this iteration's relax set out of the dirty sets (dirty
// vertices inside the current bucket), latching their base distances — the
// only ones a kernel reads — and latches the collective schedule. Hub
// decisions derive from replicated state and the L proxy is the globally
// agreed dirty count, so every rank latches identically.
func (st *ssspState) beginIter(it *IterTrace) {
	limit := float64(st.bucket+1) * st.delta
	st.relaxHub.Reset()
	st.hubDirty.ForEach(func(h int) {
		if st.hubDist[h] < limit {
			st.relaxHub.Set(h)
			st.hubBaseD[h] = st.hubDist[h]
		}
	})
	st.hubDirty.AndNot(st.relaxHub)
	st.relaxL.Reset()
	st.lDirty.ForEach(func(li int) {
		if st.lDist[li] < limit {
			st.relaxL.Set(li)
			st.lBaseD[li] = st.lDist[li]
		}
	})
	st.lDirty.AndNot(st.relaxL)
	st.frontierSchedule(it, st.relaxHub, st.activeL)
	st.relaxBase = st.relaxations
	st.pendImproved, st.pendAL, st.pendNext = 0, 0, 0
}

// epilogue runs the agreement pair: the sum-allreduce carries this rank's
// successful relaxations of the iteration (zero everywhere exactly when no
// distance improved anywhere: a sync only spreads an improvement some rank's
// lowerHub made) and the global dirty-L count; the max-allreduce (negated)
// agrees on the smallest bucket holding a dirty vertex. Both collectives run
// unconditionally so the schedule matches on every rank.
func (st *ssspState) epilogue() error {
	next := int64(math.MaxInt64)
	bucketOf := func(d float64) {
		if !math.IsInf(d, 1) {
			if b := int64(d / st.delta); b < next {
				next = b
			}
		}
	}
	st.hubDirty.ForEach(func(h int) { bucketOf(st.hubDist[h]) })
	st.lDirty.ForEach(func(li int) { bucketOf(st.lDist[li]) })
	var err error
	st.pendImproved, st.pendAL, err = st.agree(st.relaxations-st.relaxBase, int64(st.lDirty.Count()))
	neg := []int64{-next}
	err2 := comm.AllreduceMaxInt64(st.r.World, neg)
	if err2 == nil {
		st.pendNext = -neg[0]
	}
	if err != nil {
		return err
	}
	return err2
}

// endIter commits the agreed counts. A quiescent iteration (no improvement
// anywhere) either converges — nothing left dirty — or advances the bucket to
// the agreed next occupied one; remaining dirty vertices all sit past the
// current limit, so the bucket strictly advances.
func (st *ssspState) endIter(it *IterTrace) bool {
	st.activeL = st.pendAL
	if st.pendImproved == 0 {
		if st.pendNext == math.MaxInt64 {
			return true
		}
		st.bucket = st.pendNext
	}
	return false
}

func (st *ssspState) lowerHub(h int32, nd float64, parent int64) {
	if nd < st.hubDist[h] {
		st.hubDist[h] = nd
		st.hubParent[h] = parent
		st.scr.touched.add(h)
		st.relaxations++
	}
}

func (st *ssspState) lowerL(li int32, nd float64, parent int64) {
	if nd < st.lDist[li] {
		st.lDist[li] = nd
		st.lParent[li] = parent
		st.lDirty.Set(int(li))
		st.relaxations++
	}
}

// syncDists min-merges the hub (distance, parent) pairs improved since the
// last sync column-then-row with a deterministic fold (smaller distance wins;
// equal distance takes the larger parent), the SSSP analogue of the hub-bitmap
// sync, and re-marks every hub improved anywhere as dirty. A replica the fold
// changes does not count a relaxation: the rank whose lowerHub found the
// improvement already did.
func (st *ssspState) syncDists() error {
	t := &st.scr.touched
	err := syncTouched(&st.valueBase, "dist_sync", &st.scr.distRecs,
		func(h int32) distMsg { return distMsg{To: int64(h), Dist: st.hubDist[h], Parent: st.hubParent[h]} },
		func(m distMsg) (int32, bool) {
			h := int32(m.To)
			better := m.Dist < st.hubDist[h] || (m.Dist == st.hubDist[h] && m.Parent > st.hubParent[h])
			if better {
				st.hubDist[h], st.hubParent[h] = m.Dist, m.Parent
			}
			return h, better
		})
	for _, h := range t.list {
		st.hubDirty.Set(int(h))
	}
	t.clear()
	return err
}

// ehRelax: in-bucket source hubs relax destination hubs over this rank's 2D
// core-subgraph block (weights from original IDs); local, merged by the sync.
func (st *ssspState) ehRelax() (int64, error) {
	push := &st.rg.EHPush
	orig := st.e.Part.Hubs.Orig
	return hubRows(push.IDs, push.Ptr, push.Adj, st.relaxHub, func(src int32, row []int32) {
		du, u := st.hubBaseD[src], orig[src]
		for _, dst := range row {
			st.lowerHub(dst, du+sssp.WeightOf(u, orig[dst], st.seed), u)
		}
	}), nil
}

// e2lRelax: in-bucket E hubs relax owned L vertices locally.
func (st *ssspState) e2lRelax() (int64, error) {
	csr := &st.rg.EToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	return hubRows(csr.IDs, csr.Ptr, csr.Adj, st.relaxHub, func(hub int32, row []int32) {
		du, u := st.hubBaseD[hub], orig[hub]
		for _, li := range row {
			v := layout.GlobalOf(st.r.ID, li)
			st.lowerL(li, du+sssp.WeightOf(u, v, st.seed), u)
		}
	}), nil
}

// h2lRelax: in-bucket H hubs in this rank's column block relax their L
// neighbors across the row.
func (st *ssspState) h2lRelax() (int64, error) {
	csr := &st.rg.HToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	mesh := st.e.Opt.Mesh
	send := sendParts(&st.valueBase, partition.CompH2L, &st.scr.distParts, mesh.Cols)
	edges := hubRows(csr.IDs, csr.Ptr, csr.Adj, st.relaxHub, func(hub int32, row []partition.RemoteL) {
		du, u := st.hubBaseD[hub], orig[hub]
		for _, rem := range row {
			v := layout.GlobalOf(mesh.RankAt(st.r.Row, int(rem.Col)), rem.LIdx)
			nd := du + sssp.WeightOf(u, v, st.seed)
			send[rem.Col] = append(send[rem.Col], distMsg{To: int64(rem.LIdx), Dist: nd, Parent: u})
		}
	})
	return edges, ship(&st.valueBase, partition.CompH2L, send, func(recv [][]distMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerL(int32(m.To), m.Dist, m.Parent)
			}
		}
	}, nil)
}

// l2eRelax: in-bucket owned L vertices relax E delegates locally.
func (st *ssspState) l2eRelax() (int64, error) {
	csr := &st.rg.LToE
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	return lRows(csr.Ptr, csr.Adj, st.relaxL, func(li int, row []int32) {
		du, u := st.lBaseD[li], layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range row {
			st.lowerHub(hub, du+sssp.WeightOf(u, orig[hub], st.seed), u)
		}
	}), nil
}

// l2hRelax: in-bucket owned L vertices message the row delegate of each H
// neighbor the relaxation would actually improve (the live check against the
// replicated distance saves the message and is identical on both exchange
// arms — nothing between L2E and here touches hub distances).
func (st *ssspState) l2hRelax() (int64, error) {
	csr := &st.rg.LToH
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	send := sendParts(&st.valueBase, partition.CompL2H, &st.scr.distParts, mesh.Cols)
	edges := lRows(csr.Ptr, csr.Adj, st.relaxL, func(li int, row []int32) {
		du, u := st.lBaseD[li], layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range row {
			if nd := du + sssp.WeightOf(u, orig[hub], st.seed); nd < st.hubDist[hub] {
				col := hubs.ColBlockOf(hub, mesh)
				send[col] = append(send[col], distMsg{To: int64(hub), Dist: nd, Parent: u})
			}
		}
	})
	return edges, ship(&st.valueBase, partition.CompL2H, send, func(recv [][]distMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerHub(int32(m.To), m.Dist, m.Parent)
			}
		}
	}, nil)
}

// l2lRelax: in-bucket owned L vertices relax their L neighbors at the owners
// over the world.
func (st *ssspState) l2lRelax() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := sendParts(&st.valueBase, partition.CompL2L, &st.scr.distParts, layout.P)
	edges := lRows(csr.Ptr, csr.Adj, st.relaxL, func(li int, row []int64) {
		du, u := st.lBaseD[li], layout.GlobalOf(st.r.ID, int32(li))
		for _, dst := range row {
			owner := layout.Owner(dst)
			send[owner] = append(send[owner], distMsg{To: dst, Dist: du + sssp.WeightOf(u, dst, st.seed), Parent: u})
		}
	})
	return edges, ship(&st.valueBase, partition.CompL2L, send, func(recv [][]distMsg) {
		for _, part := range recv {
			for _, m := range part {
				st.lowerL(layout.LocalIdx(m.To), m.Dist, m.Parent)
			}
		}
	}, nil)
}
