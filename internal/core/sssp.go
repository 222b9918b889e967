package core

import (
	"math"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/sssp"
	"repro/internal/trace"
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
// The push adds each edge's weight from the rank's weight table (w, one array
// parallel to each component's adjacency, declared as its addend) rather
// than hashing it.
//
// What an iteration touches is what changed: base distances are latched for
// the relax set only, a hub re-enters the dirty set at the sync that makes
// its improvement global, and the epilogue's quiescence test is the
// iteration's count of successful relaxations.
type ssspState struct {
	valueBase

	root  int64
	delta float64
	w     [partition.NumComponents][]float64 // the rank's weight table for the run's seed

	hubDist, hubBaseD []float64
	hubParent         []int64
	lDist, lBaseD     []float64
	lParent           []int64

	hubDirty, lDirty *bitmap.Bitmap // improved since last relaxed
	relaxHub, relaxL *bitmap.Bitmap // this iteration's in-bucket relax set

	bucket  int64
	activeL int64 // global dirty-L count (sparse/skip proxy)

	relaxations *int64 // successful lowerings so far: lPack's last slot
	relaxBase   int64  // *relaxations as of beginIter

	pendImproved, pendAL, pendNext int64

	// hubPack and lPack are the checkpointed form, [Float64bits(dist)... |
	// parent...], and the only storage: the distance and parent slices above
	// are views of their two halves, so a capture packs nothing. lPack has
	// one slot more, the relaxation count, so a resumed run keeps counting
	// from the checkpoint instead of from zero.
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
// slots carry no load. The relaxation counter rides in lPack's last slot, so
// a retried step rolls it back with the L state (re-executed applies would
// count again) and a checkpoint persists it.
func newSSSPState(e *Engine, r *comm.Rank, root int64, seed uint64, delta float64) *ssspState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &ssspState{
		valueBase: newValueBase(e, r),
		root:      root,
		delta:     delta,
		w:         e.ssspWeightsOf(r, seed),
		hubBaseD:  make([]float64, k),
		lBaseD:    make([]float64, per),
		hubDirty:  bitmap.New(k),
		lDirty:    bitmap.New(per),
		relaxHub:  bitmap.New(k),
		relaxL:    bitmap.New(per),
		hubPack:   make([]int64, 2*k),
		lPack:     make([]int64, 2*per+1),
	}
	st.hubDist, st.hubParent = float64View(st.hubPack[:k]), st.hubPack[k:]
	st.lDist, st.lParent = float64View(st.lPack[:per]), st.lPack[per:2*per]
	st.relaxations = &st.lPack[2*per]
	// The push min-relaxes the in-bucket sources' base distances plus each
	// edge's weight, with the source as parent; a lowering re-dirties the
	// vertex and counts a relaxation.
	st.declare(valueSpec{
		wl: st,
		planes: []planeSpec{{kernels: pushKernels(&st.valueBase, &valuePush[float64]{
			hubSrc: st.relaxHub, lSrc: st.relaxL,
			hubIn: st.hubBaseD, lIn: st.lBaseD, w: st.w,
			hub: st.hubDist, l: st.lDist, hubPar: st.hubParent, lPar: st.lParent,
			lMark: st.lDirty, touched: &st.scr.touched, relax: st.relaxations,
		})}},
		hubSync:  st.syncDists,
		epilogue: st.epilogue,
		hubF:     st.hubDirty.Words(), hubV: st.relaxHub.Words(),
		lF: st.lDirty.Words(), lV: st.relaxL.Words(),
		pHub: st.hubPack, pL: st.lPack,
		activeL: &st.activeL, visitL: &st.bucket,
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
	st.relaxBase = *st.relaxations
	st.pendImproved, st.pendAL, st.pendNext = 0, 0, 0
}

// epilogue runs the agreement pair: the sum-allreduce carries this rank's
// successful relaxations of the iteration (zero everywhere exactly when no
// distance improved anywhere: a sync only spreads an improvement some rank's
// push made) and the global dirty-L count; the max-allreduce (negated)
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
	st.pendImproved, st.pendAL, err = st.agree(*st.relaxations-st.relaxBase, int64(st.lDirty.Count()))
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

// syncDists min-merges the hub (distance, parent) pairs improved since the
// last sync column-then-row with a deterministic fold (smaller distance wins;
// equal distance takes the larger parent), the SSSP analogue of the hub-bitmap
// sync, and re-marks every hub improved anywhere as dirty. A replica the fold
// changes does not count a relaxation: the rank whose push found the
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

// ssspWeights is one rank's SSSP weight table: w[c] runs parallel to the
// adjacency of relax component c's CSR, so a kernel reads an edge's weight
// beside its endpoint instead of hashing it on every relaxation. It lives on
// the engine, outside the rank graph and so outside the checkpoint graph
// tier, and costs 8 B per stored directed edge on engines that run SSSP.
type ssspWeights struct {
	seed  uint64
	built bool
	w     [partition.NumComponents][]float64
}

// ssspWeightsOf returns rank r's weight table for seed, filling it on the
// rank's own goroutine from sssp.WeightOf — the only definition of a weight —
// when the table is unbuilt or holds another seed. A build emits one
// sssp_weights event span with the edges and bytes it wrote.
func (e *Engine) ssspWeightsOf(r *comm.Rank, seed uint64) [partition.NumComponents][]float64 {
	t := &e.ssspW[r.ID]
	if t.built && t.seed == seed {
		return t.w
	}
	tr := r.Trace()
	var t0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	rg, orig, layout, mesh := e.Part.Ranks[r.ID], e.Part.Hubs.Orig, e.Part.Layout, e.Opt.Mesh
	var edges int64
	// table sizes c's weights to its n edges and returns the row writer: the
	// weights of the row at off from source u to each destination dst(j).
	table := func(c partition.Component, n int) func(u, off int64, row int, dst func(j int) int64) {
		if len(t.w[c]) != n {
			t.w[c] = make([]float64, n)
		}
		edges += int64(n)
		w := t.w[c]
		return func(u, off int64, row int, dst func(j int) int64) {
			for j := range row {
				w[off+int64(j)] = sssp.WeightOf(u, dst(j), seed)
			}
		}
	}
	eh := table(partition.CompEH2EH, len(rg.EHPush.Adj))
	hubRows(rg.EHPush.IDs, rg.EHPush.Ptr, rg.EHPush.Adj, nil, func(h int32, off int64, row []int32) {
		eh(orig[h], off, len(row), func(j int) int64 { return orig[row[j]] })
	})
	e2l := table(partition.CompE2L, len(rg.EToL.Adj))
	hubRows(rg.EToL.IDs, rg.EToL.Ptr, rg.EToL.Adj, nil, func(h int32, off int64, row []int32) {
		e2l(orig[h], off, len(row), func(j int) int64 { return layout.GlobalOf(r.ID, row[j]) })
	})
	h2l := table(partition.CompH2L, len(rg.HToL.Adj))
	hubRows(rg.HToL.IDs, rg.HToL.Ptr, rg.HToL.Adj, nil, func(h int32, off int64, row []partition.RemoteL) {
		h2l(orig[h], off, len(row), func(j int) int64 {
			return layout.GlobalOf(mesh.RankAt(r.Row, int(row[j].Col)), row[j].LIdx)
		})
	})
	for c, csr := range map[partition.Component]*partition.DenseCSR32{partition.CompL2E: &rg.LToE, partition.CompL2H: &rg.LToH} {
		lh := table(c, len(csr.Adj))
		lRows(csr.Ptr, csr.Adj, nil, func(li int32, off int64, row []int32) {
			lh(layout.GlobalOf(r.ID, li), off, len(row), func(j int) int64 { return orig[row[j]] })
		})
	}
	l2l := table(partition.CompL2L, len(rg.L2L.Adj))
	lRows(rg.L2L.Ptr, rg.L2L.Adj, nil, func(li int32, off int64, row []int64) {
		l2l(layout.GlobalOf(r.ID, li), off, len(row), func(j int) int64 { return row[j] })
	})
	t.seed, t.built = seed, true
	if tr != nil {
		tr.Emit(trace.Span{Kind: trace.KindEvent, Epoch: r.Epoch(), Iter: -1, Step: -1, Tag: -1,
			Name: "sssp_weights", Start: t0, Dur: tr.Now() - t0,
			Args: map[string]int64{"edges": edges, "bytes": 8 * edges}})
	}
	return t.w
}
