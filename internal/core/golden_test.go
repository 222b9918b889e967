package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
)

// soloGolden is what one Engine.Run produced at the last commit that still
// had a separate solo BFS path (PR 12, 2f42610). Run now rides the batched
// workload with one query, so these constants are what "bit-identical to the
// pre-merge solo path" means: same parents, same depth, same collective
// schedule, same traffic, same edges scanned.
type soloGolden struct {
	parentFNV  uint64
	iterations int
	calls      int64 // data-plane collective calls, all kinds, all ranks
	bytes      int64 // data-plane bytes sent, all kinds, all ranks
	edges      int64 // Recorder.TotalEdges()
}

// goldenOf hashes the queries' parent arrays in query order.
func goldenOf(iterations int, rec *stats.Recorder, queries ...*Result) soloGolden {
	h := fnv.New64a()
	var le [8]byte
	for _, res := range queries {
		for _, p := range res.Parent {
			binary.LittleEndian.PutUint64(le[:], uint64(p))
			h.Write(le[:])
		}
	}
	vol := rec.CommBreakdown()
	g := soloGolden{parentFNV: h.Sum64(), iterations: iterations,
		bytes: vol.TotalBytes(), edges: rec.TotalEdges()}
	for _, c := range vol.Calls {
		g.calls += c
	}
	return g
}

// TestSoloGoldenPinned pins Run (batch width 1) and, at width 8, RunBatch
// over distinctConnectedRoots: one parent hash over the eight queries in
// query order, the sweep's Iterations and the batch recorder's totals. The
// width-8 rows were measured at 53a4022, the last commit whose BFS had its
// own step schedule and exchanges, so they pin the batched schedule —
// dense, sparse and pulling planes sharing one exchange point — exactly.
func TestSoloGoldenPinned(t *testing.T) {
	rm := func(scale int, seed uint64) func() (int64, []rmat.Edge) {
		return func() (int64, []rmat.Edge) {
			cfg := rmat.Config{Scale: scale, Seed: seed}
			return cfg.NumVertices(), rmat.Generate(cfg)
		}
	}
	mesh22, mesh23 := topology.Mesh{Rows: 2, Cols: 2}, topology.Mesh{Rows: 2, Cols: 3}
	th := partition.Thresholds{E: 256, H: 32}
	cases := []struct {
		name    string
		queries int
		graph   func() (int64, []rmat.Edge)
		opt     Options
		want    soloGolden
	}{
		{"default", 1, rm(12, 31),
			Options{Mesh: mesh22, Thresholds: DefaultThresholds(12)},
			soloGolden{parentFNV: 1284218994041633427, iterations: 5, calls: 116, bytes: 71600, edges: 11948}},
		{"hierarchical", 1, rm(11, 32),
			Options{Mesh: mesh23, Thresholds: partition.Thresholds{E: 128, H: 16},
				Hierarchical: true},
			soloGolden{parentFNV: 15586696085591811889, iterations: 5, calls: 192, bytes: 61264, edges: 13533}},
		{"sparse-always", 1, func() (int64, []rmat.Edge) { return combEdges(48, 9) },
			Options{Mesh: mesh22, Thresholds: partition.Thresholds{E: 64, H: 3}, SparseTail: SparseAlways},
			soloGolden{parentFNV: 10289178882571903236, iterations: 57, calls: 1924, bytes: 97616, edges: 5291}},
		{"batch8-default", 8, rm(10, 42),
			Options{Mesh: mesh22, Thresholds: th},
			soloGolden{parentFNV: 7708394337284380457, iterations: 5, calls: 148, bytes: 119728, edges: 25163}},
		{"batch8-sparse-off+hierarchical", 8, rm(10, 42),
			Options{Mesh: mesh23, Thresholds: th, SparseTail: SparseOff, Hierarchical: true},
			soloGolden{parentFNV: 16195851930774619256, iterations: 5, calls: 258, bytes: 164416, edges: 24305}},
		{"batch8-pull-only", 8, rm(10, 42),
			Options{Mesh: mesh22, Thresholds: th, Direction: ModePullOnly},
			soloGolden{parentFNV: 8167936905272099331, iterations: 5, calls: 208, bytes: 104576, edges: 324644}},
		{"batch8-sparse-always", 8, func() (int64, []rmat.Edge) { return combEdges(48, 9) },
			Options{Mesh: mesh22, Thresholds: partition.Thresholds{E: 64, H: 3}, SparseTail: SparseAlways},
			soloGolden{parentFNV: 5740447163893679389, iterations: 58, calls: 2172, bytes: 620232, edges: 62584}},
		// Push-only rows, recorded at e85a507, the last commit whose BFS had
		// its own hand-written push kernels: they pin every push component
		// (dense, sparse and forwarded L2L) with no pull to hide it.
		{"push-only", 1, rm(12, 31),
			Options{Mesh: mesh22, Thresholds: DefaultThresholds(12), Direction: ModePushOnly},
			soloGolden{parentFNV: 6695839752681299965, iterations: 5, calls: 216, bytes: 131904, edges: 130674}},
		{"batch8-push-only-sparse-always", 8, rm(10, 42),
			Options{Mesh: mesh22, Thresholds: th, Direction: ModePushOnly, SparseTail: SparseAlways},
			soloGolden{parentFNV: 9592690649358144146, iterations: 5, calls: 208, bytes: 1441192, edges: 259888}},
		{"batch8-push-only+hierarchical", 8, rm(10, 42),
			Options{Mesh: mesh23, Thresholds: th, Direction: ModePushOnly, SparseTail: SparseOff, Hierarchical: true},
			soloGolden{parentFNV: 15020987197805264642, iterations: 5, calls: 372, bytes: 647728, edges: 259888}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, edges := tc.graph()
			eng, err := NewEngine(n, edges, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			var got soloGolden
			if tc.queries == 1 {
				res, err := eng.Run(firstConnectedRootOf(eng))
				if err != nil {
					t.Fatal(err)
				}
				got = goldenOf(res.Iterations, res.Recorder, res)
			} else {
				roots := distinctConnectedRoots(eng, tc.queries)
				if len(roots) != tc.queries {
					t.Fatalf("wanted %d roots, got %v", tc.queries, roots)
				}
				br, err := eng.RunBatch(roots)
				if err != nil {
					t.Fatal(err)
				}
				got = goldenOf(br.Iterations, br.Recorder, br.Queries...)
			}
			if got != tc.want {
				t.Errorf("got    %+v\npinned %+v", got, tc.want)
			}
		})
	}
}

// analyticsGolden pins one ported-workload run. resultFNV, iterations,
// relaxations and edges are the values the last commit before the
// delta-proportional iteration work produced (PR 13, 42c4982) and must never
// move: same labels / membership / distances and parents, same depth, same
// relaxation sequence, same edges scanned. calls and bytes are pinned to what
// the touched-delegate sync ships, with the parent's values beside each case:
// the sync sends (hub, value) records for changed delegates only, and one
// allgather per mesh axis where WCC and k-core used a reduce-scatter +
// allgather pair (SSSP's call count moves only where the smaller byte
// feedback lets SparseAuto batch one more tail iteration).
type analyticsGolden struct {
	resultFNV   uint64
	iterations  int
	relaxations int64
	calls       int64 // data-plane collective calls, all kinds, all ranks
	bytes       int64 // data-plane bytes sent, all kinds, all ranks
	edges       int64 // Recorder.TotalEdges()
}

func analyticsGoldenOf(res *WorkloadResult) analyticsGolden {
	h := fnv.New64a()
	var le [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(le[:], v)
		h.Write(le[:])
	}
	for _, l := range res.Label {
		put(uint64(l))
	}
	for _, in := range res.InCore {
		if in {
			put(1)
		} else {
			put(0)
		}
	}
	for _, d := range res.Dist {
		put(math.Float64bits(d))
	}
	for _, p := range res.Parent {
		put(uint64(p))
	}
	for _, r := range res.Rank {
		put(math.Float64bits(r))
	}
	vol := res.Recorder.CommBreakdown()
	g := analyticsGolden{resultFNV: h.Sum64(), iterations: res.Iterations, relaxations: res.Relaxations,
		bytes: vol.TotalBytes(), edges: res.Recorder.TotalEdges()}
	for _, c := range vol.Calls {
		g.calls += c
	}
	return g
}

func TestAnalyticsGoldenPinned(t *testing.T) {
	cfg := rmat.Config{Scale: 12, Seed: 31}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	type goldens struct{ wcc, kcore, sssp, pagerank analyticsGolden }
	// PageRank is dense by nature: every case ships the same schedule.
	pagerankGolden := analyticsGolden{resultFNV: 3806934413877753863, iterations: 30, calls: 720, bytes: 3810240, edges: 3920220}
	// parent: calls 216 / 72 / 828, bytes 916608 / 226880 / 9821744
	auto := goldens{
		wcc:   analyticsGolden{resultFNV: 5520159451202571858, iterations: 5, calls: 136, bytes: 417112, edges: 397008},
		kcore: analyticsGolden{resultFNV: 1247276083855396261, iterations: 3, calls: 48, bytes: 31712, edges: 1133},
		sssp:  analyticsGolden{resultFNV: 8807060016549982954, iterations: 32, relaxations: 16873, calls: 820, bytes: 727336, edges: 343219},

		pagerank: pagerankGolden,
	}
	// parent: calls 200 / 72 / 764, bytes 1358344 / 231648 / 10492768
	always := goldens{
		wcc:   analyticsGolden{resultFNV: 5520159451202571858, iterations: 5, calls: 120, bytes: 849736, edges: 397008},
		kcore: analyticsGolden{resultFNV: 1247276083855396261, iterations: 3, calls: 48, bytes: 36480, edges: 1133},
		sssp:  analyticsGolden{resultFNV: 8807060016549982954, iterations: 32, relaxations: 16873, calls: 764, bytes: 1305736, edges: 343219},

		pagerank: pagerankGolden,
	}
	// A 2x4 mesh, auto sparse tail: row and column routing differ here, so
	// swapping them moves these pins where it leaves the square mesh's alone.
	// Recorded at 1202a23, before the value workloads shared one push.
	mesh24 := goldens{
		wcc:      analyticsGolden{resultFNV: 5520159451202571858, iterations: 5, calls: 272, bytes: 1352072, edges: 397008},
		kcore:    analyticsGolden{resultFNV: 1247276083855396261, iterations: 3, calls: 96, bytes: 85136, edges: 1133},
		sssp:     analyticsGolden{resultFNV: 8807060016549982954, iterations: 32, relaxations: 18142, calls: 1632, bytes: 2408856, edges: 343219},
		pagerank: analyticsGolden{resultFNV: 13742624817760561570, iterations: 30, calls: 1440, bytes: 7912320, edges: 3920220},
	}
	cases := []struct {
		name string
		opt  Options
		goldens
	}{
		{"default", Options{Mesh: mesh, Thresholds: DefaultThresholds(12)}, auto},
		// The ported workloads' L2L is always the flat exchange, so this
		// option must change nothing.
		{"hierarchical", Options{Mesh: mesh, Thresholds: DefaultThresholds(12),
			Hierarchical: true}, auto},
		{"sparse-always", Options{Mesh: mesh, Thresholds: DefaultThresholds(12),
			SparseTail: SparseAlways}, always},
		{"mesh2x4", Options{Mesh: topology.Mesh{Rows: 2, Cols: 4}, Thresholds: DefaultThresholds(12)}, mesh24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(n, edges, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			root := firstConnectedRootOf(eng)
			for _, w := range []struct {
				name string
				run  func() (*WorkloadResult, error)
				want analyticsGolden
			}{
				{"wcc", eng.RunWCC, tc.wcc},
				{"kcore", func() (*WorkloadResult, error) { return eng.RunKCore(3) }, tc.kcore},
				{"sssp", func() (*WorkloadResult, error) { return eng.RunSSSP(root, 7, 0) }, tc.sssp},
				{"pagerank", func() (*WorkloadResult, error) { return eng.RunPageRank(0.85, 1e-9, 0) }, tc.pagerank},
			} {
				res, err := w.run()
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if got := analyticsGoldenOf(res); got != w.want {
					t.Errorf("%s = %+v\npinned %+v", w.name, got, w.want)
				}
			}
		})
	}
}
