package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// runNamedWorkload dispatches one of the ported workloads by name with fixed
// per-workload parameters (k=2 cores, weight seed 9, default delta, 120
// PageRank rounds) so the fault tests can sweep workloads uniformly.
func runNamedWorkload(eng *Engine, wl string, root int64) (*WorkloadResult, error) {
	switch wl {
	case "wcc":
		return eng.RunWCC()
	case "kcore":
		return eng.RunKCore(2)
	case "sssp":
		return eng.RunSSSP(root, 9, 0)
	case "pagerank":
		return eng.RunPageRank(0.85, 0, 120)
	}
	panic("unknown workload " + wl)
}

// compareWorkloadResults demands the workload-specific output arrays agree
// bit for bit — the retry and recovery machinery must be invisible in the
// result.
func compareWorkloadResults(t *testing.T, label string, got, want *WorkloadResult) {
	t.Helper()
	switch want.Workload {
	case "wcc":
		for v := range want.Label {
			if got.Label[v] != want.Label[v] {
				t.Fatalf("%s: label[%d] = %d, fault-free %d", label, v, got.Label[v], want.Label[v])
			}
		}
		if got.Components != want.Components {
			t.Fatalf("%s: components = %d, fault-free %d", label, got.Components, want.Components)
		}
	case "kcore":
		for v := range want.InCore {
			if got.InCore[v] != want.InCore[v] {
				t.Fatalf("%s: inCore[%d] = %v, fault-free %v", label, v, got.InCore[v], want.InCore[v])
			}
		}
	case "sssp":
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
				t.Fatalf("%s: vertex %d (%g,%d), fault-free (%g,%d)",
					label, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
	case "pagerank":
		for v := range want.Rank {
			if math.Float64bits(got.Rank[v]) != math.Float64bits(want.Rank[v]) {
				t.Fatalf("%s: rank[%d] = %.17g, fault-free %.17g", label, v, got.Rank[v], want.Rank[v])
			}
		}
		if got.Delta != want.Delta || got.Iterations != want.Iterations {
			t.Fatalf("%s: delta %g after %d rounds, fault-free %g after %d",
				label, got.Delta, got.Iterations, want.Delta, want.Iterations)
		}
	default:
		t.Fatalf("unknown workload %q", want.Workload)
	}
}

func workloadSparseCalls(res *WorkloadResult) int64 {
	return res.Recorder.CommBreakdown().Calls[comm.KindAllgatherSparse]
}

func workloadSparseIterFraction(trs []IterTrace) float64 {
	if len(trs) == 0 {
		return 0
	}
	sparse := 0
	for _, it := range trs {
		if anySparse(it) {
			sparse++
		}
	}
	return float64(sparse) / float64(len(trs))
}

// TestWorkloadChaosMatrix sweeps every injectable fault kind across every
// mesh shape for each ported workload. Each faulted run must record injected
// faults and retries, and its output must be bit-identical to the fault-free
// run of the same workload on the same partition.
func TestWorkloadChaosMatrix(t *testing.T) {
	cfg := rmat.Config{Scale: 8, Seed: 13}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	meshes := []topology.Mesh{
		{Rows: 2, Cols: 2}, {Rows: 1, Cols: 4}, {Rows: 4, Cols: 1}, {Rows: 2, Cols: 3},
	}
	kinds := []struct {
		name   string
		mutate func(p *faultinject.Plan, o *Options)
	}{
		{"delay-deadline", func(p *faultinject.Plan, o *Options) {
			p.DelayProb = 0.05
			o.CollectiveDeadline = 120 * time.Microsecond
		}},
		{"fail", func(p *faultinject.Plan, o *Options) { p.FailProb = 0.01 }},
		{"corrupt", func(p *faultinject.Plan, o *Options) { p.CorruptProb = 0.02 }},
		{"stall-window", func(p *faultinject.Plan, o *Options) {
			p.StallRank = 1
			p.StallStart = 2
			p.StallLen = 3
		}},
	}
	workloads := []string{"wcc", "kcore", "sssp", "pagerank"}
	for mi, mesh := range meshes {
		mesh := mesh
		base := Options{Mesh: mesh, Thresholds: partition.Thresholds{E: 64, H: 8}}
		ref, err := NewEngine(n, edges, base)
		if err != nil {
			t.Fatal(err)
		}
		// k-core needs a long peeling schedule for the probabilistic plans to
		// land faults: on R-MAT the 2-core settles in a handful of rounds, so
		// kcore runs the matrix on a path, whose ends peel two per iteration.
		kcoreRef, err := NewEngine(512, pathEdges(512), base)
		if err != nil {
			t.Fatal(err)
		}
		root := firstConnectedRootOf(ref)
		engineFor := func(wl string) *Engine {
			if wl == "kcore" {
				return kcoreRef
			}
			return ref
		}
		want := map[string]*WorkloadResult{}
		for _, wl := range workloads {
			res, err := runNamedWorkload(engineFor(wl), wl, root)
			if err != nil {
				t.Fatalf("fault-free %s on %dx%d: %v", wl, mesh.Rows, mesh.Cols, err)
			}
			want[wl] = res
		}
		for wi, wl := range workloads {
			for ki, k := range kinds {
				wl, k := wl, k
				// Re-picked (was 9100) when the delegate sync became one allgather
				// per axis: the plans draw per (rank, kind, sequence number), and
				// four WCC cells' draws no longer landed on a collective.
				seed := uint64(9104 + 97*mi + 13*wi + ki)
				name := fmt.Sprintf("%s/%dx%d/%s", wl, mesh.Rows, mesh.Cols, k.name)
				t.Run(name, func(t *testing.T) {
					if testing.Short() && (mi+wi+ki)%3 != 0 {
						t.Skip("subset in -short mode")
					}
					t.Parallel()
					plan := faultinject.New(seed)
					opt := base
					opt.Transport = plan
					opt.MaxRetries = 12
					opt.RetryBackoff = 50 * time.Microsecond
					k.mutate(plan, &opt)
					eng, err := NewEngineFromPartition(engineFor(wl).Part, opt)
					if err != nil {
						t.Fatal(err)
					}
					res, err := runNamedWorkload(eng, wl, root)
					if err != nil {
						t.Fatalf("%s under %s: %v", wl, k.name, err)
					}
					if res.Faults.Injected() == 0 {
						t.Fatalf("%s plan injected nothing; pick a different seed", k.name)
					}
					if res.Retries == 0 {
						t.Fatalf("%s was injected but never forced a retry", k.name)
					}
					compareWorkloadResults(t, name, res, want[wl])
				})
			}
		}
	}
}

// TestWorkloadKillRecoverySparseTail kills a rank deep in the sparse tail of
// each ported workload and recovers from the newest complete checkpoint. The
// replayed tail must ride the sparse exchange again and the final output must
// be bit-identical to a fault-free forced-dense run — the BFS kill-recovery
// acceptance, per workload. PageRank is dense by nature: it is killed mid-run
// and must never ship a sparse exchange.
func TestWorkloadKillRecoverySparseTail(t *testing.T) {
	const n = 256
	edges := pathEdges(n)
	cases := []struct {
		wl       string
		killIter int64
	}{
		{"wcc", 100},
		{"kcore", 50},
		{"sssp", 100},
		{"pagerank", 100},
	}
	base := Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 256, H: 32},
	}
	denseOpt := base
	denseOpt.SparseTail = SparseOff
	dense, err := NewEngine(n, edges, denseOpt)
	if err != nil {
		t.Fatal(err)
	}
	for ci, tc := range cases {
		ci, tc := ci, tc
		t.Run(tc.wl, func(t *testing.T) {
			dres, err := runNamedWorkload(dense, tc.wl, 0)
			if err != nil {
				t.Fatalf("fault-free dense %s: %v", tc.wl, err)
			}
			if int64(dres.Iterations) <= tc.killIter+2 {
				t.Fatalf("%s converged in %d iterations; kill@%d would not fire", tc.wl, dres.Iterations, tc.killIter)
			}
			sparseEng, err := NewEngineFromPartition(dense.Part, base) // SparseAuto default
			if err != nil {
				t.Fatal(err)
			}
			sres, err := runNamedWorkload(sparseEng, tc.wl, 0)
			if err != nil {
				t.Fatalf("fault-free sparse %s: %v", tc.wl, err)
			}
			compareWorkloadResults(t, tc.wl+"/fault-free-sparse", sres, dres)
			denseOnly := tc.wl == "pagerank"
			if denseOnly && workloadSparseCalls(sres) != 0 {
				t.Fatalf("dense %s shipped a sparse exchange", tc.wl)
			}
			if !denseOnly && workloadSparseCalls(sres) == 0 {
				t.Fatalf("fault-free %s tail never went sparse", tc.wl)
			}

			mode := RecoverShrink
			if ci%2 == 1 {
				mode = RecoverRestore
			}
			opt := base
			opt.Transport = &chaosTransport{kills: []*killCall{{rank: 3, iter: tc.killIter, tag: 0}}}
			opt.CheckpointDir = t.TempDir()
			opt.Recovery = mode
			eng, err := NewEngineFromPartition(dense.Part, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runNamedWorkload(eng, tc.wl, 0)
			if err != nil {
				t.Fatalf("recovered %s run failed: %v", tc.wl, err)
			}
			if res.Recovery.Epochs != 1 || res.Recovery.RanksLost != 1 {
				t.Fatalf("recovery %+v: want 1 epoch, 1 rank lost", res.Recovery)
			}
			if res.Faults.Kills != 1 {
				t.Fatalf("kills = %d, want 1", res.Faults.Kills)
			}
			// The checkpoint must carry the run back near the kill, not restart
			// the workload from scratch: at most MaxLag-1 captures behind the
			// newest one attempted (killIter-1), by the writer's contract.
			if want := tc.killIter - checkpoint.MaxLag; res.Recovery.LastResumeIter < want {
				t.Fatalf("resumed at iteration %d, want >= %d (checkpoint.MaxLag)",
					res.Recovery.LastResumeIter, want)
			}
			if denseOnly && workloadSparseCalls(res) != 0 {
				t.Fatalf("recovered dense %s run shipped a sparse exchange", tc.wl)
			}
			if !denseOnly && workloadSparseCalls(res) == 0 {
				t.Fatalf("recovered %s run never used the sparse exchange", tc.wl)
			}
			if frac := workloadSparseIterFraction(res.Trace); !denseOnly && frac < 0.5 {
				t.Fatalf("only %.0f%% of recovered %s iterations went sparse", 100*frac, tc.wl)
			}
			compareWorkloadResults(t, tc.wl+"/"+mode.String(), res, dres)
			rec := res.Recovery
			t.Logf("%s/%s: resumed@%d replayed=%d restored=%dB recovery=%v",
				tc.wl, mode, rec.LastResumeIter, rec.IterationsReplayed, rec.BytesRestored, rec.RecoveryTime)
		})
	}
}
