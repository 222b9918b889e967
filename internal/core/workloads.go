package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/stats"
)

// WorkloadResult is the shared result envelope of the ported analytics
// workloads (RunWCC, RunKCore, RunSSSP, RunPageRank). Workload names the
// kernel; only the fields of that workload's section are populated. The
// accounting fields mirror Result: the ported workloads run the same driver
// loop as BFS, so recorder breakdowns, fault/retry counters and fail-stop
// recovery state all carry the same meaning.
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

	Iterations      int
	Time            time.Duration
	Recorder        *stats.Recorder
	PerRank         []*stats.Recorder
	Trace           []IterTrace
	Faults          comm.FaultStats
	Retries         int64
	RecoveryTime    time.Duration
	Recovery        stats.RecoveryStats
	CheckpointScope string
}

// newWorkloadResult folds an execute outcome into the shared envelope.
func newWorkloadResult(workload string, rc *runCommon) *WorkloadResult {
	return &WorkloadResult{
		Workload:        workload,
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
}

// RunWCC computes connected components on the engine's fast path: min-label
// propagation over the six 1.5D components with delegated hub labels, the
// adaptive sparse tail, step-granular retry and checkpoint/recovery — the
// same schedule as BFS, carrying labels instead of parents.
func (e *Engine) RunWCC() (*WorkloadResult, error) {
	rc, err := e.execute("wcc", nil,
		func(e *Engine, r *comm.Rank) workload { return newWCCState(e, r) })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("wcc", rc)
	n := e.Part.Layout.N
	res.Label = make([]int64, n)
	for i := range res.Label {
		res.Label[i] = -1
	}
	if rc.err == nil {
		for _, wl := range rc.states {
			if wl == nil {
				continue
			}
			wl.(*wccState).writeResult(res.Label)
		}
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
// sum-reduced column-then-row, and the whole loop inherits retry and
// checkpoint/recovery from the driver.
func (e *Engine) RunKCore(k int64) (*WorkloadResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative k-core threshold %d", k)
	}
	rc, err := e.execute(fmt.Sprintf("kcore%d", k), map[string]int64{"k": k},
		func(e *Engine, r *comm.Rank) workload { return newKCoreState(e, r, k) })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("kcore", rc)
	res.K = k
	res.InCore = make([]bool, e.Part.Layout.N)
	if rc.err == nil {
		for _, wl := range rc.states {
			if wl == nil {
				continue
			}
			wl.(*kcoreState).writeResult(res.InCore)
		}
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
// width (1/8, tuned for uniform [0,1) weights).
func (e *Engine) RunSSSP(root int64, weightSeed uint64, delta float64) (*WorkloadResult, error) {
	n := e.Part.Layout.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: root %d out of [0,%d)", root, n)
	}
	if delta <= 0 {
		delta = 1.0 / 8
	}
	rc, err := e.execute(fmt.Sprintf("sssp%d", root), map[string]int64{"root": root},
		func(e *Engine, r *comm.Rank) workload { return newSSSPState(e, r, root, weightSeed, delta) })
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
		for _, wl := range rc.states {
			if wl == nil {
				continue
			}
			st := wl.(*ssspState)
			st.writeResult(res.Dist, res.Parent)
			res.Relaxations += st.relaxations
		}
		if e.World.Distributed() {
			// Gather the remote segments of both arrays and replace the
			// process-local relaxation count with the global sum.
			var total int64
			e.distAssemble(func(r *comm.Rank, lead bool) {
				gatherOwned(e, r, lead, res.Dist)
				gatherOwned(e, r, lead, res.Parent)
				var mine int64
				if wl := rc.states[r.ID]; wl != nil {
					mine = wl.(*ssspState).relaxations
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
// the driver. damping must lie in (0,1), and maxIter may not exceed the
// driver's bound of 32 × Options.MaxIterations.
func (e *Engine) RunPageRank(damping, tol float64, maxIter int) (*WorkloadResult, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("core: damping %g out of (0,1)", damping)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	if limit := e.Opt.MaxIterations * workloadIterScale; maxIter > limit {
		return nil, fmt.Errorf("core: PageRank budget of %d rounds exceeds the driver's %d", maxIter, limit)
	}
	rc, err := e.execute("pagerank", nil,
		func(e *Engine, r *comm.Rank) workload { return newPageRankState(e, r, damping, tol, maxIter) })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("pagerank", rc)
	res.Rank = make([]float64, e.Part.Layout.N)
	if rc.err == nil {
		for _, wl := range rc.states {
			if wl == nil {
				continue
			}
			st := wl.(*pagerankState)
			st.writeResult(res.Rank)
			res.Delta = st.delta
		}
		e.distAssemble(func(r *comm.Rank, lead bool) {
			gatherOwned(e, r, lead, res.Rank)
		})
	}
	return res, rc.err
}
