// Diameter estimation via batched multi-source BFS: the small-world property
// (low diameter despite sparse degree) is what makes direction optimization
// so effective on Graph 500 graphs — after two or three hops the frontier
// covers most of the component. This example measures it directly: 64 BFS
// traversals run in one batched sweep, reported as one bit per source of a
// 64-bit word per vertex, and per-source traversals give eccentricities.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	g := graph500.Generate(graph500.GenConfig{Scale: 14, Seed: 9})
	runner, err := graph500.New(g, graph500.Config{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	// Sample 64 sources with edges.
	sources, err := runner.SampleRoots(64, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Run the 64 BFS traversals as one batched sweep.
	masks, err := runner.Reachability(sources)
	if err != nil {
		log.Fatal(err)
	}

	// Per-source reachable set sizes from the final masks.
	reach := make([]int, 64)
	for _, m := range masks {
		for s := 0; s < 64; s++ {
			if m&(1<<uint(s)) != 0 {
				reach[s]++
			}
		}
	}
	minR, maxR := reach[0], reach[0]
	for _, r := range reach {
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, len(g.Edges))
	fmt.Printf("64 simultaneous traversals (one bit each):\n")
	fmt.Printf("  reachable set sizes: min %d, max %d\n", minR, maxR)

	// Eccentricities via per-source BFS levels (the exact measure).
	maxEcc, sumEcc := 0, 0
	for i := 0; i < 8; i++ { // exact eccentricity for a subsample
		res, err := runner.RunValidated(sources[i])
		if err != nil {
			log.Fatal(err)
		}
		ecc := res.Iterations - 1
		sumEcc += ecc
		if ecc > maxEcc {
			maxEcc = ecc
		}
	}
	fmt.Printf("  eccentricity over 8 exact traversals: max %d, mean %.1f\n",
		maxEcc, float64(sumEcc)/8)
	fmt.Printf("small-world: %d vertices reached within ~%d hops\n", maxR, maxEcc)
}
