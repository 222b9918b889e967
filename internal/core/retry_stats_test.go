package core

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/validate"
)

// reliable is a fault transport that never fires, so the engine runs the
// full resilience machinery (snapshots, votes, envelopes) without any retry —
// the apples-to-apples baseline for the double-count comparison.
type reliable struct{}

func (reliable) Intercept(comm.Call) comm.FaultAction { return comm.FaultAction{} }

// TestRetryDoesNotDoubleCountStats is the regression test for the stats
// double-count on step-granular retry: a retried step is re-entered
// mid-iteration and re-observes its kernels, and before the driver learned
// to roll the recorder back (valueSnap.rec), the failed attempt's volumes and
// edge touches stayed in the aggregates. A run that retried must report exactly
// the volumes and edges of an identical run that never failed.
func TestRetryDoesNotDoubleCountStats(t *testing.T) {
	n, edges := rmatEdges(t, 10, 7)
	build := func(tr comm.Transport) *Engine {
		t.Helper()
		eng, err := NewEngine(n, edges, Options{
			Mesh:       topology.Mesh{Rows: 2, Cols: 2},
			Thresholds: partition.Thresholds{E: 512, H: 64},
			Transport:  tr,
			MaxRetries: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := build(reliable{})
	root := firstConnectedRootOf(ref)
	want, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		fault *failOnce
	}{
		// Step 0 of iteration 2: the retry re-enters at the iteration's
		// first step and re-runs every kernel, sync and the epilogue.
		{"mid-iteration step retry", &failOnce{rank: 0, iter: 2, tag: 0}},
		// The delayed parent reduction after convergence (it runs with the
		// converging iteration still current): its retry loop re-runs
		// reduceParents, re-observing PhaseReduce.
		{"parent reduction retry", &failOnce{rank: 0, iter: int64(want.Iterations - 1), tag: TagReduce}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := build(tc.fault)
			got, err := eng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.fault.fired.Load() {
				t.Fatal("fault never fired; the retry path is not exercised")
			}
			if got.Retries == 0 {
				t.Fatal("no retry was taken; the regression is not exercised")
			}
			if _, err := validate.BFS(n, edges, root, got.Parent); err != nil {
				t.Fatalf("validation after retry: %v", err)
			}
			for p := stats.Phase(0); p < stats.NumPhases; p++ {
				if g, w := got.Recorder.EdgesTouched[p], want.Recorder.EdgesTouched[p]; g != w {
					t.Errorf("EdgesTouched[%v] = %d after retry, want %d (fault-free)", p, g, w)
				}
				if g, w := got.Recorder.Volumes[p], want.Recorder.Volumes[p]; g != w {
					t.Errorf("Volumes[%v] = %+v after retry, want %+v (fault-free)", p, g, w)
				}
			}
		})
	}
}

// failReduce fails rank 0's contribution to every delayed-reduction
// collective, so the reduction never succeeds however often it is retried.
type failReduce struct{}

func (failReduce) Intercept(c comm.Call) comm.FaultAction {
	return comm.FaultAction{Fail: c.Rank == 0 && c.Tag == TagReduce}
}

// TestReduceRetryGivesUp covers the give-up path of the delayed reduction's
// retry: a reduction that fails on every attempt ends the run with an error
// satisfying both ErrNoConvergence and the comm sentinel that kept firing,
// after MaxRetries re-executions. Every rank counts each failed vote, the
// final one included, and Retries sums the ranks.
func TestReduceRetryGivesUp(t *testing.T) {
	n, edges := rmatEdges(t, 10, 7)
	const maxRetries = 3
	eng, err := NewEngine(n, edges, Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 512, H: 64},
		Transport:  failReduce{},
		MaxRetries: maxRetries,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(firstConnectedRootOf(eng))
	if err == nil {
		t.Fatal("a reduction that always fails returned no error")
	}
	if !errors.Is(err, ErrNoConvergence) || !errors.Is(err, comm.ErrCollectiveFailed) {
		t.Fatalf("err = %v, want ErrNoConvergence and comm.ErrCollectiveFailed in its chain", err)
	}
	if res == nil {
		t.Fatal("no result returned beside the error")
	}
	if want := int64(eng.Opt.Ranks * (maxRetries + 1)); res.Retries != want {
		t.Fatalf("Retries = %d, want %d (%d ranks × %d failed votes)",
			res.Retries, want, eng.Opt.Ranks, maxRetries+1)
	}
	if res.Faults.Failures < maxRetries+1 {
		t.Fatalf("Faults.Failures = %d, want at least one per attempt (%d)", res.Faults.Failures, maxRetries+1)
	}
}

// failAll fails every rank's contribution to every data-plane collective.
type failAll struct{}

func (failAll) Intercept(comm.Call) comm.FaultAction { return comm.FaultAction{Fail: true} }

// TestNegativeMaxRetriesMeansNone: MaxRetries -1 means no retries, so
// NewEngine must resolve the defaults once (a second pass read the resolved
// 0 as "unset" and made it 4). With every collective failing, the run gives
// up at its first failed vote with ErrNoConvergence and re-executes nothing:
// Retries, which counts each rank's failed votes including the final one
// (TestReduceRetryGivesUp), is one per rank.
func TestNegativeMaxRetriesMeansNone(t *testing.T) {
	n, edges := rmatEdges(t, 10, 7)
	eng, err := NewEngine(n, edges, Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 512, H: 64},
		Transport:  failAll{},
		MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Opt.MaxRetries != 0 {
		t.Fatalf("MaxRetries -1 resolved to %d, want 0", eng.Opt.MaxRetries)
	}
	res, err := eng.Run(firstConnectedRootOf(eng))
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res == nil {
		t.Fatal("no result returned beside the error")
	}
	if want := int64(eng.Opt.Ranks); res.Retries != want {
		t.Fatalf("Retries = %d, want %d (one failed vote per rank, no re-execution)", res.Retries, want)
	}
}
