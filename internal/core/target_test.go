package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// fullTree is one root's solo run and its levels: the oracle a target query
// is held to.
type fullTree struct {
	res    *Result
	levels []int64
}

func soloTrees(t *testing.T, eng *Engine, roots []int64) []fullTree {
	t.Helper()
	trees := make([]fullTree, len(roots))
	for i, root := range roots {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatalf("solo root %d: %v", root, err)
		}
		lv, err := graph.Levels(res.Parent, root)
		if err != nil {
			t.Fatalf("solo root %d: %v", root, err)
		}
		trees[i] = fullTree{res, lv}
	}
	return trees
}

// targetKind names what a target is, so a corpus can show it covers each.
func targetKind(eng *Engine, tree fullTree, root, v int64) string {
	switch h, hub := eng.Part.Hubs.HubOf(v); {
	case v == root:
		return "root"
	case hub && int(h) < eng.Part.Hubs.NumE:
		return "E hub"
	case hub:
		return "H hub"
	case eng.Part.Degrees[v] == 0:
		return "degree 0"
	case tree.levels[v] < 0:
		return "unreachable"
	}
	return "L"
}

// targetCorpus picks per root its own id, up to three E and three H hubs,
// three degree-0 vertices, three non-isolated vertices the root does not
// reach and an even spread of the rest, perRoot targets in all.
func targetCorpus(eng *Engine, tree fullTree, root int64, perRoot int) []int64 {
	n := eng.Part.Layout.N
	hubs := eng.Part.Hubs
	targets := []int64{root}
	add := func(v int64) {
		if !slices.Contains(targets, v) {
			targets = append(targets, v)
		}
	}
	for i := 0; i < min(3, hubs.NumE); i++ {
		add(hubs.Orig[i*hubs.NumE/3])
	}
	for i := 0; i < min(3, hubs.NumH); i++ {
		add(hubs.Orig[hubs.NumE+i*hubs.NumH/3])
	}
	isolated, unreached := 0, 0
	for v := int64(0); v < n && (isolated < 3 || unreached < 3); v++ {
		switch {
		case eng.Part.Degrees[v] == 0 && isolated < 3 && v != root:
			add(v)
			isolated++
		case eng.Part.Degrees[v] > 0 && tree.levels[v] < 0 && unreached < 3:
			add(v)
			unreached++
		}
	}
	for v := (root * 7) % n; len(targets) < perRoot; v = (v + n/int64(perRoot) + 1) % n {
		add(v)
	}
	return targets
}

// checkTarget holds one target query's answer to the full tree's: the parent,
// the level, reachability, no assembled array, and the depth its answer was
// fixed at — none for the root or a degree-0 target, the target's level when
// reached, the component's depth when not.
func checkTarget(t *testing.T, what string, eng *Engine, q *Result, tree fullTree) {
	t.Helper()
	tg := q.Target
	if q.Parent != nil {
		t.Errorf("%s: target query assembled an N-entry parent array", what)
	}
	if q.TargetParent != tree.res.Parent[tg] {
		t.Errorf("%s: parent %d, full tree %d", what, q.TargetParent, tree.res.Parent[tg])
	}
	if q.TargetLevel != tree.levels[tg] {
		t.Errorf("%s: level %d, full tree %d", what, q.TargetLevel, tree.levels[tg])
	}
	if (q.TargetParent >= 0) != (tree.res.Parent[tg] >= 0) {
		t.Errorf("%s: reached %v, full tree %v", what, q.TargetParent >= 0, tree.res.Parent[tg] >= 0)
	}
	want := int(tree.levels[tg])
	switch {
	case eng.Part.Degrees[tg] == 0:
		want = 0
	case want < 0:
		want = tree.res.Iterations
	}
	if q.Iterations != want {
		t.Errorf("%s: answer fixed at depth %d, want %d", what, q.Iterations, want)
	}
}

// withIslet joins the first three isolated vertices of the graph into a path,
// a component of its own: targets that have edges but that no root outside
// the path reaches.
func withIslet(n int64, edges []rmat.Edge) []rmat.Edge {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	var path []int64
	for v := int64(0); v < n && len(path) < 3; v++ {
		if deg[v] == 0 {
			path = append(path, v)
		}
	}
	return append(slices.Clip(edges), rmat.Edge{U: path[0], V: path[1]}, rmat.Edge{U: path[1], V: path[2]})
}

// TestTargetQueriesMatchFullTree is the target-query oracle on a padded 2x3
// mesh: over 200 (root, target) pairs covering the root itself, E and H hubs
// (whose parents come from the delayed reduction), degree-0 vertices and
// non-isolated vertices the root does not reach, every target query must
// return exactly the full tree's parent, level and reachability — in batches
// that mix target and full-tree queries, whose full-tree queries must stay
// bit-identical to solo runs. One batch rides RunBatch's packed keys.
func TestTargetQueriesMatchFullTree(t *testing.T) {
	cfg := rmat.Config{Scale: 11, Seed: 5}
	n := cfg.NumVertices()
	edges := withIslet(n, rmat.Generate(cfg))
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 3},
		Thresholds: partition.Thresholds{E: 128, H: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Part.Hubs.NumE == 0 || eng.Part.Hubs.NumH == 0 {
		t.Fatalf("want both hub classes, got %d E and %d H", eng.Part.Hubs.NumE, eng.Part.Hubs.NumH)
	}
	if n%int64(eng.Part.Layout.P) == 0 {
		t.Fatal("layout is not padded")
	}
	roots := distinctConnectedRoots(eng, 4)
	trees := soloTrees(t, eng, roots)

	var pairs []Query
	var of []int // tree index per pair
	kinds := map[string]int{}
	for ri, root := range roots {
		for _, tg := range targetCorpus(eng, trees[ri], root, 56) {
			pairs = append(pairs, Query{Root: root, Target: tg})
			of = append(of, ri)
			kinds[targetKind(eng, trees[ri], root, tg)]++
		}
	}
	if len(pairs) < 200 {
		t.Fatalf("corpus has %d targets, want >= 200", len(pairs))
	}
	for _, k := range []string{"root", "E hub", "H hub", "degree 0", "unreachable", "L"} {
		if kinds[k] == 0 {
			t.Fatalf("corpus covers no %s target: %v", k, kinds)
		}
	}
	t.Logf("targets by kind: %v", kinds)

	const perBatch = 6 // target queries per batch, beside two full trees
	for lo, b := 0, 0; lo < len(pairs); lo, b = lo+perBatch, b+1 {
		hi := min(lo+perBatch, len(pairs))
		qs := append([]Query(nil), pairs[lo:hi]...)
		fulls := []int{b % len(roots), (b + 1) % len(roots)}
		for _, ri := range fulls {
			qs = append(qs, Query{Root: roots[ri], Target: -1})
		}
		var br *BatchResult
		var err error
		if b == 0 {
			keys := make([]int64, len(qs))
			for i, q := range qs {
				keys[i] = q.Key()
			}
			br, err = eng.RunBatch(keys)
		} else {
			br, err = eng.RunQueries(qs)
		}
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for i := range pairs[lo:hi] {
			q := br.Queries[i]
			tree := trees[of[lo+i]]
			if q.Root != pairs[lo+i].Root || q.Target != pairs[lo+i].Target {
				t.Fatalf("batch %d query %d answers (%d,%d), asked %+v", b, i, q.Root, q.Target, pairs[lo+i])
			}
			what := fmt.Sprintf("batch %d: %s target %d of root %d", b, targetKind(eng, tree, q.Root, q.Target), q.Target, q.Root)
			checkTarget(t, what, eng, q, tree)
		}
		for i, ri := range fulls {
			q, solo := br.Queries[hi-lo+i], trees[ri].res
			if q.Target != -1 || !slices.Equal(q.Parent, solo.Parent) || q.Iterations != solo.Iterations ||
				q.TraversedEdges != solo.TraversedEdges {
				t.Fatalf("batch %d: full tree of root %d differs from its solo run", b, roots[ri])
			}
		}
	}
}

// levelTargets picks, per root, a target at each level 1..depth and one
// non-isolated vertex the root does not reach (when there is one).
func levelTargets(eng *Engine, tree fullTree) []int64 {
	var targets []int64
	seen := map[int64]bool{}
	unreached := false
	for v, lv := range tree.levels {
		switch {
		case lv > 0 && !seen[lv]:
			seen[lv] = true
			targets = append(targets, int64(v))
		case lv < 0 && !unreached && eng.Part.Degrees[v] > 0:
			unreached = true
			targets = append(targets, int64(v))
		}
	}
	return targets
}

// TestTargetBatchKillRecovery loses a rank mid-way through a batch of target
// queries beside one full tree, under both rebuild modes. Targets at levels 1
// and 2 converged before the kill, so their answers come from the
// checkpointed doneIter and parent state; deeper ones were in flight and
// finish after the replay. Every answer must equal the fault-free full
// tree's.
func TestTargetBatchKillRecovery(t *testing.T) {
	cfg := rmat.Config{Scale: 12, Seed: 23}
	n := cfg.NumVertices()
	edges := withIslet(n, rmat.Generate(cfg))
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(12)}
	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	roots := distinctConnectedRoots(ref, 3)
	trees := soloTrees(t, ref, roots)
	var qs []Query
	var of []int
	for ri, root := range roots {
		for _, tg := range levelTargets(ref, trees[ri]) {
			qs = append(qs, Query{Root: root, Target: tg})
			of = append(of, ri)
		}
	}
	qs = append(qs, Query{Root: roots[0], Target: -1})
	if len(qs) < 10 || trees[0].res.Iterations < 4 {
		t.Fatalf("%d queries, depth %d: too shallow for kill@iter=2 to land mid-flight", len(qs), trees[0].res.Iterations)
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
			br, err := eng.RunQueries(qs)
			if err != nil {
				t.Fatalf("recovered batch failed: %v", err)
			}
			if br.Faults.Kills != 1 || br.Recovery.Epochs != 1 {
				t.Fatalf("kills=%d recovery=%+v: want one kill and one epoch", br.Faults.Kills, br.Recovery)
			}
			// Resuming past iteration 0 means the level-1 targets' planes had
			// converged inside the checkpoint the replay started from.
			if br.Recovery.LastResumeIter < 0 {
				t.Fatalf("resumed from iteration %d: the replay restarted the traversal", br.Recovery.LastResumeIter)
			}
			for i, q := range br.Queries[:len(qs)-1] {
				checkTarget(t, fmt.Sprintf("%s: target %d of root %d", mode, q.Target, q.Root), eng, q, trees[of[i]])
			}
			if full := br.Queries[len(qs)-1]; !slices.Equal(full.Parent, trees[0].res.Parent) {
				t.Errorf("%s: the full tree riding the batch differs from its fault-free solo run", mode)
			}
		})
	}
}

// TestDistTargetQueries runs a mixed batch of target and full-tree queries on
// a socket world of two processes: every process must return the in-process
// answers, including targets owned by ranks the process does not host.
func TestDistTargetQueries(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 11}
	n := cfg.NumVertices()
	edges := withIslet(n, rmat.Generate(cfg))
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(9)}
	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	roots := distinctConnectedRoots(ref, 2)
	trees := soloTrees(t, ref, roots)
	var qs []Query
	var of []int
	for ri, root := range roots {
		for _, tg := range targetCorpus(ref, trees[ri], root, 24) {
			qs = append(qs, Query{Root: root, Target: tg})
			of = append(of, ri)
		}
	}
	qs = append(qs, Query{Root: roots[1], Target: -1})
	want, err := ref.RunQueries(qs)
	if err != nil {
		t.Fatal(err)
	}
	results := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
		func(e *Engine) (*BatchResult, error) { return e.RunQueries(qs) })
	for proc, br := range results {
		for i, q := range br.Queries {
			w := want.Queries[i]
			if q.TargetParent != w.TargetParent || q.TargetLevel != w.TargetLevel ||
				q.Iterations != w.Iterations || !slices.Equal(q.Parent, w.Parent) {
				t.Errorf("proc %d query %+v: (parent %d, level %d, depth %d), in-process (%d, %d, %d)",
					proc, qs[i], q.TargetParent, q.TargetLevel, q.Iterations, w.TargetParent, w.TargetLevel, w.Iterations)
			}
		}
	}
	for i, q := range want.Queries[:len(qs)-1] {
		checkTarget(t, fmt.Sprintf("in-process target %d of root %d", q.Target, q.Root), ref, q, trees[of[i]])
	}
}
