package core

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestTraceCapturesRunTimeline runs a traced BFS end-to-end — rank goroutines,
// the engine stream and the checkpoint-writer streams all recording
// concurrently (the -race CI job exercises this file) — and checks the merged
// timeline holds the spans the evaluation pipeline is built from.
func TestTraceCapturesRunTimeline(t *testing.T) {
	n, edges := rmatEdges(t, 10, 5)
	tr := trace.New()
	eng, err := NewEngine(n, edges, Options{
		Mesh:          topology.Mesh{Rows: 2, Cols: 2},
		Thresholds:    partition.Thresholds{E: 512, H: 64},
		Trace:         tr,
		Transport:     &failOnce{rank: 0, iter: 1, tag: 0},
		MaxRetries:    4,
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(firstConnectedRootOf(eng))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("injected fault forced no retry")
	}

	spans := tr.Spans()
	byKind := map[trace.Kind]int{}
	byName := map[string]int{}
	ranks := map[int]bool{}
	for _, sp := range spans {
		byKind[sp.Kind]++
		byName[sp.Name]++
		ranks[sp.Rank] = true
		if sp.Start < 0 || sp.Dur < 0 {
			t.Fatalf("span %+v has a negative timestamp", sp)
		}
	}

	// Kernel spans: one per executed (iteration, component, direction) per
	// rank, including elided (skip) instants; with a retry, re-executed
	// components appear again under Attempt 1.
	minKernels := res.Iterations * int(partition.NumComponents) * 4
	if byKind[trace.KindKernel] < minKernels {
		t.Errorf("kernel spans = %d, want >= %d (%d iterations on 4 ranks)",
			byKind[trace.KindKernel], minKernels, res.Iterations)
	}
	// Decisions: one per iteration per rank (retries do not re-decide).
	if got, want := byKind[trace.KindDecision], res.Iterations*4; got != want {
		t.Errorf("decision spans = %d, want %d", got, want)
	}
	if byKind[trace.KindSync] == 0 || byKind[trace.KindReduce] == 0 || byKind[trace.KindCollective] == 0 {
		t.Errorf("missing sync/reduce/collective spans: %v", byKind)
	}
	if byName["retry"] == 0 {
		t.Errorf("retried run recorded no retry span: %v", byName)
	}
	if byName["capture"] == 0 || byName["commit"] == 0 {
		t.Errorf("checkpointed run recorded no capture/commit spans: %v", byName)
	}
	if byName["run_start"] != 1 || byName["run"] != 1 {
		t.Errorf("engine lifecycle spans wrong: %v", byName)
	}
	// All four ranks plus the engine stream (-1) recorded.
	for r := -1; r < 4; r++ {
		if !ranks[r] {
			t.Errorf("no spans from rank %d (got ranks %v)", r, ranks)
		}
	}

	// A retried kernel is distinguishable: some span carries Attempt > 0.
	found := false
	for _, sp := range spans {
		if sp.Kind == trace.KindKernel && sp.Attempt > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no kernel span from the failed attempt carries Attempt > 0")
	}
}

// TestTraceAttributesKernelsPerQuery: every plane of a batch records its own
// kernel and decision spans on the rank's stream, tagged with its query id,
// so a batched timeline says which query the local-kernel time belongs to.
func TestTraceAttributesKernelsPerQuery(t *testing.T) {
	n, edges := rmatEdges(t, 10, 5)
	tr := trace.New()
	eng, err := NewEngine(n, edges, Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 512, H: 64},
		Trace:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := distinctConnectedRoots(eng, 3)
	if len(roots) != 3 {
		t.Fatalf("wanted 3 roots, got %v", roots)
	}
	batch, err := eng.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[int64]int{}   // qid -> kernel spans, all ranks
	ran := map[int64]int{}       // qid -> kernel spans that scanned edges
	decisions := map[int64]int{} // qid -> decision spans, all ranks
	for _, sp := range tr.Spans() {
		qid, ok := sp.Args["qid"]
		switch {
		case sp.Kind == trace.KindKernel && ok:
			kernels[qid]++
			if sp.Edges > 0 {
				ran[qid]++
			}
		case sp.Kind == trace.KindDecision:
			if !ok {
				t.Fatalf("decision span %+v names no query", sp)
			}
			decisions[qid]++
		}
	}
	for q, res := range batch.Queries {
		qid := int64(q)
		// One span per component per iteration per rank at least (skips
		// included); a deferred pull or retry only adds to it.
		if got, min := kernels[qid], res.Iterations*int(partition.NumComponents)*4; got < min {
			t.Errorf("query %d: %d kernel spans, want >= %d (%d iterations on 4 ranks)", q, got, min, res.Iterations)
		}
		if ran[qid] == 0 {
			t.Errorf("query %d: no kernel span scanned an edge", q)
		}
		if got, want := decisions[qid], res.Iterations*4; got != want {
			t.Errorf("query %d: %d decision spans, want %d", q, got, want)
		}
	}
	if len(kernels) != len(roots) {
		t.Errorf("kernel spans name queries %v, want exactly %d of them", kernels, len(roots))
	}
}
