package graph500

import (
	"testing"
)

func smallGraph(t *testing.T) Graph {
	t.Helper()
	return Generate(GenConfig{Scale: 10, Seed: 21})
}

func TestGenerateSizes(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 1})
	if g.NumVertices != 256 || int64(len(g.Edges)) != 16*256 {
		t.Fatalf("n=%d m=%d", g.NumVertices, len(g.Edges))
	}
}

func TestRunValidated(t *testing.T) {
	g := smallGraph(t)
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent[1] != 1 {
		t.Fatal("root parent wrong")
	}
}

func TestRunValidatedDetectsCorruption(t *testing.T) {
	g := smallGraph(t)
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt and check Validate catches it.
	for v := range res.Parent {
		if res.Parent[v] == -1 {
			res.Parent[v] = 1 // claim an unreachable vertex was reached
			break
		}
	}
	if err := Validate(g, 1, res.Parent); err == nil {
		t.Fatal("Validate accepted corrupt parents")
	}
}

func TestSampleRoots(t *testing.T) {
	g := smallGraph(t)
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	roots, err := r.SampleRoots(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 16 {
		t.Fatalf("%d roots", len(roots))
	}
	for _, bad := range []int{0, -1} {
		if _, err := r.SampleRoots(bad, 7); err == nil {
			t.Fatalf("SampleRoots(%d) accepted", bad)
		}
	}
	deg := r.Degrees()
	seen := map[int64]bool{}
	for _, root := range roots {
		if deg[root] == 0 {
			t.Fatalf("root %d has degree 0", root)
		}
		if seen[root] {
			t.Fatalf("root %d sampled twice", root)
		}
		seen[root] = true
	}
}

func TestBenchmarkStatistics(t *testing.T) {
	g := smallGraph(t)
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Benchmark(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sum.HarmonicTEPS <= 0 || sum.MeanTEPS < sum.HarmonicTEPS {
		t.Fatalf("harmonic %.0f vs mean %.0f: harmonic mean must not exceed arithmetic",
			sum.HarmonicTEPS, sum.MeanTEPS)
	}
	if sum.MinTEPS > sum.MaxTEPS || sum.MinTEPS <= 0 {
		t.Fatalf("min %.0f max %.0f", sum.MinTEPS, sum.MaxTEPS)
	}
	if sum.GTEPS() <= 0 {
		t.Fatal("GTEPS not positive")
	}
}

func TestConfigVariants(t *testing.T) {
	g := smallGraph(t)
	for _, cfg := range []Config{
		{Ranks: 4, Direction: PushOnly},
		{Ranks: 4, Direction: PullOnly},
		{Ranks: 4, Direction: WholeIterationDirection},
		{Ranks: 8, Hierarchical: true},
		{Mesh: Mesh{Rows: 2, Cols: 4}},
		{Ranks: 4, Thresholds: Thresholds{E: 128, H: 16}},
	} {
		r, err := New(g, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if _, err := r.RunValidated(5); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := smallGraph(t)
	hist := DegreeHistogram(g)
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices {
		t.Fatalf("histogram covers %d vertices, want %d", total, g.NumVertices)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	r, err := New(g, Config{Ranks: 1, Thresholds: Thresholds{E: 100, H: 10}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunValidated(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 4; v++ {
		if res.Parent[v] < 0 {
			t.Fatalf("vertex %d unreached on a path graph", v)
		}
	}
}
