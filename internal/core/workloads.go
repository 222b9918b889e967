package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// WorkloadResult is the shared result envelope of the ported analytics
// workloads (RunWCC, RunKCore, RunSSSP, RunPageRank). Workload names the
// kernel; only the fields of that workload's section are populated. The
// run record is Result's: the ported workloads run the same loop as BFS, so
// recorder breakdowns, fault/retry counters and fail-stop recovery state all
// carry the same meaning.
type WorkloadResult struct {
	Workload string

	// WCC: Label[v] is the smallest original vertex ID in v's component;
	// Components counts distinct labels among vertices with nonzero degree.
	Label      []int64
	Components int64

	// k-core: InCore[v] marks membership of the K-core; CoreSize counts it.
	InCore   []bool
	CoreSize int64
	K        int64

	// SSSP: distances and parents from Root under the deterministic
	// Graph 500 weights (sssp.WeightOf with WeightSeed); unreachable
	// vertices have Dist +Inf and Parent -1. Relaxations counts successful
	// distance lowerings across all ranks (delegated hub relaxations count
	// once per holding rank).
	Root        int64
	WeightSeed  uint64
	Dist        []float64
	Parent      []int64
	Relaxations int64

	// PageRank: Rank[v] is v's damped PageRank (the ranks sum to one);
	// Delta is the last round's global L1 change.
	Rank  []float64
	Delta float64

	Iterations int
	Trace      []IterTrace
	RunRecord
}

// newWorkloadResult folds an execute outcome into the shared envelope.
func newWorkloadResult(workload string, rc *runCommon) *WorkloadResult {
	return &WorkloadResult{Workload: workload, Iterations: len(rc.trace), Trace: rc.trace, RunRecord: rc.RunRecord}
}

// hosted calls fn with the final workload of every rank this process hosts
// (a distributed world leaves the others nil).
func hosted[S workload](rc *runCommon, fn func(st S)) {
	for _, b := range rc.bases {
		if b != nil {
			fn(b.spec.wl.(S))
		}
	}
}

// RunWCC computes connected components on the engine's fast path: min-label
// propagation over the six 1.5D components with delegated hub labels, the
// adaptive sparse tail, step-granular retry and checkpoint/recovery — the
// same schedule as BFS, carrying labels instead of parents.
func (e *Engine) RunWCC() (*WorkloadResult, error) {
	rc, err := e.execute("wcc", nil,
		func(e *Engine, r *comm.Rank) *valueBase { return &newWCCState(e, r).valueBase })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("wcc", rc)
	res.Label = make([]int64, e.Part.Layout.N)
	for i := range res.Label {
		res.Label[i] = -1
	}
	if rc.err == nil {
		hosted(rc, func(st *wccState) {
			writeOwned(&st.valueBase, res.Label, st.lLabel, func(h int32) int64 { return st.hubLabel[h] })
		})
		e.distAssemble(func(r *comm.Rank, lead bool) {
			gatherOwned(e, r, lead, res.Label)
		})
		seen := make(map[int64]struct{})
		for v, l := range res.Label {
			if e.Part.Degrees[v] > 0 {
				seen[l] = struct{}{}
			}
		}
		res.Components = int64(len(seen))
	}
	return res, rc.err
}

// RunKCore computes the k-core (every vertex of the maximal subgraph with
// minimum degree k) by synchronous peeling on the fast path: peel marks and
// degree decrements ride the six components, hub decrements are delegated and
// sum-folded column-then-row, and the whole loop inherits retry and
// checkpoint/recovery from the base.
func (e *Engine) RunKCore(k int64) (*WorkloadResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative k-core threshold %d", k)
	}
	rc, err := e.execute(fmt.Sprintf("kcore%d", k), map[string]int64{"k": k},
		func(e *Engine, r *comm.Rank) *valueBase { return &newKCoreState(e, r, k).valueBase })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("kcore", rc)
	res.K = k
	res.InCore = make([]bool, e.Part.Layout.N)
	if rc.err == nil {
		hosted(rc, func(st *kcoreState) {
			blk := ownedSeg(e, st.r.ID, res.InCore)
			for li := range blk {
				blk[li] = !st.lRemoved.Test(li)
			}
			writeOwned(&st.valueBase, res.InCore, nil, func(h int32) bool { return !st.hubRemoved.Test(int(h)) })
		})
		e.distAssemble(func(r *comm.Rank, lead bool) {
			gatherOwned(e, r, lead, res.InCore)
		})
		for _, in := range res.InCore {
			if in {
				res.CoreSize++
			}
		}
	}
	return res, rc.err
}

// RunSSSP computes single-source shortest paths from root under the
// deterministic Graph 500 edge weights (sssp.WeightOf with weightSeed) by
// bucketed relaxation on the fast path: each iteration relaxes the improved
// vertices whose tentative distance falls inside the current delta-bucket,
// delegated hub distances are min-merged column-then-row, and bucket advance
// rides the epilogue allreduce pair. delta <= 0 selects the default bucket
// width (1/8, tuned for uniform [0,1) weights); a NaN delta is rejected, and
// so is one so small that a bucket index, distance/delta, could overflow an
// int64 (weights lie in [0,1), so a finite distance is below N).
// The first run under a weight seed fills each rank's weight table (8 B per
// stored directed edge, kept by the engine); later runs under the same seed
// reuse it.
func (e *Engine) RunSSSP(root int64, weightSeed uint64, delta float64) (*WorkloadResult, error) {
	n := e.Part.Layout.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: root %d out of [0,%d)", root, n)
	}
	if math.IsNaN(delta) {
		return nil, fmt.Errorf("core: SSSP bucket width is NaN")
	}
	if delta <= 0 {
		delta = 1.0 / 8
	}
	if float64(n)/delta >= 1<<62 {
		return nil, fmt.Errorf("core: SSSP bucket width %g is too small for %d vertices", delta, n)
	}
	rc, err := e.execute(fmt.Sprintf("sssp%d", root), map[string]int64{"root": root},
		func(e *Engine, r *comm.Rank) *valueBase {
			return &newSSSPState(e, r, root, weightSeed, delta).valueBase
		})
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("sssp", rc)
	res.Root = root
	res.WeightSeed = weightSeed
	res.Dist = make([]float64, n)
	res.Parent = make([]int64, n)
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = -1
	}
	if rc.err == nil {
		hosted(rc, func(st *ssspState) {
			writeOwned(&st.valueBase, res.Dist, st.lDist, func(h int32) float64 { return st.hubDist[h] })
			writeOwned(&st.valueBase, res.Parent, st.lParent, func(h int32) int64 { return st.hubParent[h] })
			res.Relaxations += *st.relaxations
		})
		if e.World.Distributed() {
			// Gather the remote segments of both arrays and replace the
			// process-local relaxation count with the global sum.
			var total int64
			e.distAssemble(func(r *comm.Rank, lead bool) {
				gatherOwned(e, r, lead, res.Dist)
				gatherOwned(e, r, lead, res.Parent)
				var mine int64
				if b := rc.bases[r.ID]; b != nil {
					mine = *b.spec.wl.(*ssspState).relaxations
				}
				sum := comm.ControlSumInt64(r.World, mine)
				if lead {
					total = sum
				}
			})
			res.Relaxations = total
		}
	}
	return res, rc.err
}

// RunPageRank computes damped PageRank by power iteration on the fast path
// until a round's global L1 change is at most tol or maxIter rounds have run
// (maxIter <= 0 means 100; tol = 0 runs exactly maxIter rounds). Dangling mass
// is spread uniformly, hub contributions are delegated and sum-reduced
// column-then-row, and the loop inherits retry and checkpoint/recovery from
// the base. damping must lie in (0,1), tol may not be NaN, and maxIter may
// not exceed the base's bound of 32 × Options.MaxIterations.
func (e *Engine) RunPageRank(damping, tol float64, maxIter int) (*WorkloadResult, error) {
	if !(damping > 0 && damping < 1) { // rejects NaN too
		return nil, fmt.Errorf("core: damping %g out of (0,1)", damping)
	}
	if math.IsNaN(tol) {
		return nil, fmt.Errorf("core: PageRank tolerance is NaN")
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	if limit := e.Opt.MaxIterations * workloadIterScale; maxIter > limit {
		return nil, fmt.Errorf("core: PageRank budget of %d rounds exceeds the driver's %d", maxIter, limit)
	}
	rc, err := e.execute("pagerank", nil,
		func(e *Engine, r *comm.Rank) *valueBase {
			return &newPageRankState(e, r, damping, tol, maxIter).valueBase
		})
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("pagerank", rc)
	res.Rank = make([]float64, e.Part.Layout.N)
	if rc.err == nil {
		hosted(rc, func(st *pagerankState) {
			writeOwned(&st.valueBase, res.Rank, st.lVal, func(h int32) float64 { return st.hubVal[h] })
			res.Delta = st.delta
		})
		e.distAssemble(func(r *comm.Rank, lead bool) {
			gatherOwned(e, r, lead, res.Rank)
		})
	}
	return res, rc.err
}
