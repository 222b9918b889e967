// Partitioning comparison: the same graph traversed under the three
// partitioning regimes of the paper's Table 1 — 1D with heavy delegates
// (no H class), 2D (no L class), and 3-level degree-aware 1.5D — plus the
// direction-policy ablation of Figure 15, printing measured GTEPS and edge
// touches so the trade-offs are visible on one screen.
package main

import (
	"fmt"
	"log"

	"repro"
)

func run(name string, g graph500.Graph, cfg graph500.Config) {
	runner, err := graph500.New(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := runner.Benchmark(4, 5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(sum.Roots[0])
	if err != nil {
		log.Fatal(err)
	}
	hubs := runner.Engine.Part.Hubs
	fmt.Printf("%-34s %8.4f GTEPS  %9d hubs  %12d edge touches\n",
		name, sum.GTEPS(), hubs.K(), res.Recorder.TotalEdges())
}

func main() {
	g := graph500.Generate(graph500.GenConfig{Scale: 15, Seed: 11})
	fmt.Printf("graph: %d vertices, %d edges; 8 ranks\n\n", g.NumVertices, len(g.Edges))

	// Scale-appropriate default thresholds for the 1.5D configuration.
	base := graph500.Config{Ranks: 8}
	runner, err := graph500.New(g, base)
	if err != nil {
		log.Fatal(err)
	}
	th := runner.Engine.Opt.Thresholds

	fmt.Println("partitioning comparison (paper Table 1 methods):")
	run("1D + heavy delegates (|H|=0)", g, graph500.Config{Ranks: 8, Thresholds: graph500.Thresholds{E: th.H, H: th.H}})
	run("2D (|L|=0)", g, graph500.Config{Ranks: 8, Thresholds: graph500.Thresholds{E: th.E, H: 1}})
	run("degree-aware 1.5D", g, base)

	fmt.Println("\ndirection policy ablation (paper Fig. 15):")
	run("push only", g, graph500.Config{Ranks: 8, Direction: graph500.PushOnly})
	run("whole-iteration direction opt", g, graph500.Config{Ranks: 8, Direction: graph500.WholeIterationDirection})
	run("sub-iteration direction opt", g, base)
}
