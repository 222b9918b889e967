package graph500

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sssp"
)

// The Graph 500 benchmark's second kernel (SSSP) and the general-purpose
// analytics the paper's Discussion section positions as the natural
// extension of its techniques ("the push-pull selection behind it works on
// many graph algorithms, including SSSP, PageRank and more") run on the same
// engine as BFS: every method below rides the core driver, so Config's
// faults, checkpointing, tracing and socket world apply to each of them.

// WorkloadResult re-exports the analytics result envelope: the section of
// the algorithm that ran is populated (Rank for PageRank, Label for
// components, InCore for k-core, Dist and Parent for SSSP), plus the
// iteration, fault and recovery accounting every run carries.
type WorkloadResult = core.WorkloadResult

// PageRank runs damped power iteration until a round's L1 change is at most
// tol or maxIter rounds have run (maxIter <= 0 means 100).
func (r *Runner) PageRank(damping, tol float64, maxIter int) (*WorkloadResult, error) {
	return r.Engine.RunPageRank(damping, tol, maxIter)
}

// ConnectedComponents labels every vertex with its component's minimum ID.
func (r *Runner) ConnectedComponents() (*WorkloadResult, error) { return r.Engine.RunWCC() }

// KCore returns membership of the k-core (maximal subgraph of minimum
// degree k), computed by distributed peeling with delegated hub degrees.
func (r *Runner) KCore(k int64) (*WorkloadResult, error) { return r.Engine.RunKCore(k) }

// Reachability answers, for up to 64 sources in one batched BFS sweep, which
// vertices each reaches: bit s of the returned mask of v is set iff
// sources[s] reaches v.
func (r *Runner) Reachability(sources []int64) ([]uint64, error) {
	if len(sources) == 0 || len(sources) > 64 {
		return nil, fmt.Errorf("graph500: Reachability needs 1..64 sources, got %d", len(sources))
	}
	br, err := r.Engine.RunBatch(sources)
	if err != nil {
		return nil, err
	}
	masks := make([]uint64, r.graph.NumVertices)
	for s, q := range br.Queries {
		for v, p := range q.Parent {
			if p >= 0 {
				masks[v] |= 1 << uint(s)
			}
		}
	}
	return masks, nil
}

// SSSP computes shortest paths from root by delta-bucketed relaxation under
// the Graph 500 weight convention: a deterministic uniform [0,1) weight per
// edge, keyed by weightSeed (see EdgeWeight).
func (r *Runner) SSSP(root int64, weightSeed uint64) (*WorkloadResult, error) {
	return r.Engine.RunSSSP(root, weightSeed, 0)
}

// SSSPValidated computes shortest paths and checks the optimality conditions
// (parent edges exist, distances are consistent, no edge can relax further).
func (r *Runner) SSSPValidated(root int64, weightSeed uint64) (*WorkloadResult, error) {
	res, err := r.SSSP(root, weightSeed)
	if err != nil {
		return nil, err
	}
	if err := sssp.ValidateResult(r.graph.NumVertices, r.graph.Edges, weightSeed,
		&sssp.Result{Root: root, Dist: res.Dist, Parent: res.Parent}); err != nil {
		return nil, err
	}
	return res, nil
}

// EdgeWeight returns the deterministic SSSP weight of edge {u,v} under
// weightSeed.
func (r *Runner) EdgeWeight(u, v int64, weightSeed uint64) float64 {
	return sssp.WeightOf(u, v, weightSeed)
}
