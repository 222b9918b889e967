package graph500_test

import (
	"fmt"
	"log"

	graph500 "repro"
)

// The canonical flow: generate a Graph 500 graph, partition it with 3-level
// degree-aware 1.5D partitioning, traverse, and validate.
func Example() {
	g := graph500.Generate(graph500.GenConfig{Scale: 12, Seed: 42})
	r, err := graph500.New(g, graph500.Config{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	roots, err := r.SampleRoots(1, 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.RunValidated(roots[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("validated:", res.Parent[res.Root] == res.Root)
	// Output: validated: true
}

// Degree thresholds control the E/H/L classification; the partitioner
// reports how many vertices land in each hub class.
func ExampleNew_thresholds() {
	g := graph500.FromEdges(8, []graph500.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 0, V: 5}, {U: 0, V: 6}, {U: 1, V: 2}, {U: 1, V: 3},
	})
	r, err := graph500.New(g, graph500.Config{
		Ranks:      2,
		Thresholds: graph500.Thresholds{E: 6, H: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	hubs := r.Engine.Part.Hubs
	fmt.Printf("E=%d H=%d\n", hubs.NumE, hubs.NumH)
	// Vertex 0 has degree 6 (class E); vertex 1 has degree 4 (class H).
	// Output: E=1 H=1
}

// SSSP runs the Graph 500 second kernel over the same partitioning with
// deterministic uniform edge weights.
func ExampleRunner_SSSPValidated() {
	g := graph500.FromEdges(4, []graph500.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	r, err := graph500.New(g, graph500.Config{Ranks: 2, Thresholds: graph500.Thresholds{E: 99, H: 9}})
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.SSSPValidated(0, 5)
	if err != nil {
		log.Fatal(err)
	}
	// The path distance accumulates the three edge weights exactly.
	want := r.EdgeWeight(0, 1, 5) + r.EdgeWeight(1, 2, 5) + r.EdgeWeight(2, 3, 5)
	fmt.Println("additive:", res.Dist[3] == want)
	// Output: additive: true
}

// Validate rejects forged results.
func ExampleValidate() {
	g := graph500.FromEdges(3, []graph500.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	good := []int64{0, 0, 1}
	bad := []int64{0, 0, 0} // claims edge (0,2), which does not exist
	fmt.Println("good:", graph500.Validate(g, 0, good) == nil)
	fmt.Println("bad:", graph500.Validate(g, 0, bad) == nil)
	// Output:
	// good: true
	// bad: false
}
