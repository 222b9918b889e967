package core

import (
	"encoding/binary"
	"hash/fnv"
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
