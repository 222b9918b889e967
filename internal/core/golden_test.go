package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/rmat"
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

func goldenOf(res *Result) soloGolden {
	h := fnv.New64a()
	var le [8]byte
	for _, p := range res.Parent {
		binary.LittleEndian.PutUint64(le[:], uint64(p))
		h.Write(le[:])
	}
	vol := res.Recorder.CommBreakdown()
	g := soloGolden{parentFNV: h.Sum64(), iterations: res.Iterations,
		bytes: vol.TotalBytes(), edges: res.Recorder.TotalEdges()}
	for _, c := range vol.Calls {
		g.calls += c
	}
	return g
}

func TestSoloGoldenPinned(t *testing.T) {
	rm := func(scale int, seed uint64) (int64, []rmat.Edge) {
		cfg := rmat.Config{Scale: scale, Seed: seed}
		return cfg.NumVertices(), rmat.Generate(cfg)
	}
	cases := []struct {
		name  string
		graph func() (int64, []rmat.Edge)
		opt   Options
		want  soloGolden
	}{
		{"default", func() (int64, []rmat.Edge) { return rm(12, 31) },
			Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(12)},
			soloGolden{parentFNV: 1284218994041633427, iterations: 5, calls: 116, bytes: 71600, edges: 11948}},
		{"hierarchical+segmented", func() (int64, []rmat.Edge) { return rm(11, 32) },
			Options{Mesh: topology.Mesh{Rows: 2, Cols: 3}, Thresholds: partition.Thresholds{E: 128, H: 16},
				Hierarchical: true, Segmented: true},
			soloGolden{parentFNV: 8297233237564415552, iterations: 5, calls: 192, bytes: 61264, edges: 13533}},
		{"sparse-always", func() (int64, []rmat.Edge) { return combEdges(48, 9) },
			Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 64, H: 3},
				SparseTail: SparseAlways},
			soloGolden{parentFNV: 10289178882571903236, iterations: 57, calls: 1924, bytes: 97616, edges: 5291}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, edges := tc.graph()
			eng, err := NewEngine(n, edges, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(firstConnectedRootOf(eng))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(res); got != tc.want {
				t.Errorf("Run = %+v\npinned %+v", got, tc.want)
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
	cases := []struct {
		name string
		opt  Options
		goldens
	}{
		{"default", Options{Mesh: mesh, Thresholds: DefaultThresholds(12)}, auto},
		// The ported workloads' L2L is always the flat exchange and they have
		// no pull kernels, so these two options must change nothing.
		{"hierarchical+segmented", Options{Mesh: mesh, Thresholds: DefaultThresholds(12),
			Hierarchical: true, Segmented: true}, auto},
		{"sparse-always", Options{Mesh: mesh, Thresholds: DefaultThresholds(12),
			SparseTail: SparseAlways}, always},
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
