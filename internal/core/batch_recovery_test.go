package core

import (
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// TestBatchKillRecovery loses a rank mid-way through a batched sweep, under
// both rebuild modes, and demands that the recovery path (checkpoint capture
// of the stacked plane backings, epoch rebuild, replay) hands back a correct
// answer for EVERY in-flight query — not just validation and levels, but the
// exact parent arrays the fault-free solo runs produce.
func TestBatchKillRecovery(t *testing.T) {
	cfg := rmat.Config{Scale: 12, Seed: 23}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(12)}

	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	roots := distinctConnectedRoots(ref, 6)
	if len(roots) < 4 {
		t.Fatalf("too few roots: %v", roots)
	}
	solo := make([]*Result, len(roots))
	minIters := int(^uint(0) >> 1)
	for qi, root := range roots {
		res, err := ref.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		solo[qi] = res
		if res.Iterations < minIters {
			minIters = res.Iterations
		}
	}
	if minIters < 4 {
		t.Fatalf("shallowest query converged in %d iterations; kill@iter=2 would not land mid-flight", minIters)
	}

	for _, mode := range []RecoveryMode{RecoverShrink, RecoverRestore} {
		t.Run(mode.String(), func(t *testing.T) {
			plan, err := faultinject.Parse("kill@rank=3,iter=2")
			if err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Transport = plan
			opt.CheckpointDir = t.TempDir()
			opt.Recovery = mode
			eng, err := NewEngine(n, edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eng.RunBatch(roots)
			if err != nil {
				t.Fatalf("recovered batch failed: %v", err)
			}
			if batch.Faults.Kills != 1 || batch.Recovery.Epochs != 1 || batch.Recovery.RanksLost != 1 {
				t.Fatalf("kills=%d recovery=%+v: want one kill, one epoch, one rank lost",
					batch.Faults.Kills, batch.Recovery)
			}
			if batch.Recovery.BytesRestored <= 0 {
				t.Fatalf("BytesRestored = %d, want > 0 (batched planes must ride the checkpoint)", batch.Recovery.BytesRestored)
			}
			for qi, root := range roots {
				q := batch.Queries[qi]
				for v := int64(0); v < n; v++ {
					if q.Parent[v] != solo[qi].Parent[v] {
						t.Fatalf("%s root %d: parent[%d] = %d, fault-free solo %d",
							mode, root, v, q.Parent[v], solo[qi].Parent[v])
					}
				}
				if q.Iterations != solo[qi].Iterations {
					t.Errorf("%s root %d: %d iterations, fault-free solo %d", mode, root, q.Iterations, solo[qi].Iterations)
				}
				// The per-query trace is stitched across the two world epochs
				// on the absolute iteration axis, so it matches the fault-free
				// run entry for entry from iteration 0.
				if len(q.Trace) != q.Iterations {
					t.Fatalf("%s root %d: %d trace entries for %d iterations", mode, root, len(q.Trace), q.Iterations)
				}
				for i, it := range q.Trace {
					want := solo[qi].Trace[i]
					if it.ActiveE != want.ActiveE || it.ActiveH != want.ActiveH || it.ActiveL != want.ActiveL ||
						it.Directions != want.Directions {
						t.Fatalf("%s root %d iteration %d: trace %+v, fault-free solo %+v", mode, root, i, it, want)
					}
				}
			}
		})
	}
}
