// Connected components via repeated BFS over the public API: R-MAT graphs
// at the Graph 500 edge factor have one giant component plus many isolated
// vertices and small fragments. This example enumerates them, demonstrating
// that the engine composes into higher-level graph algorithms (the paper's
// Section 8 sketches general-purpose graph processing on the same techniques).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	g := graph500.Generate(graph500.GenConfig{Scale: 14, Seed: 3})
	runner, err := graph500.New(g, graph500.Config{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	deg := runner.Degrees()

	assigned := make([]int64, g.NumVertices) // component id per vertex, -1 unassigned
	for i := range assigned {
		assigned[i] = -1
	}
	var sizes []int64
	isolated := int64(0)
	for v := int64(0); v < g.NumVertices; v++ {
		if assigned[v] != -1 {
			continue
		}
		if deg[v] == 0 {
			isolated++
			assigned[v] = -2
			continue
		}
		res, err := runner.RunValidated(v)
		if err != nil {
			log.Fatal(err)
		}
		id := int64(len(sizes))
		var size int64
		for u := int64(0); u < g.NumVertices; u++ {
			if res.Parent[u] >= 0 {
				if assigned[u] != -1 {
					log.Fatalf("vertex %d in two components", u)
				}
				assigned[u] = id
				size++
			}
		}
		sizes = append(sizes, size)
	}

	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, len(g.Edges))
	fmt.Printf("connected components: %d (plus %d isolated vertices)\n", len(sizes), isolated)
	fmt.Printf("giant component: %d vertices (%.1f%% of all)\n",
		sizes[0], 100*float64(sizes[0])/float64(g.NumVertices))
	if len(sizes) > 1 {
		fmt.Println("next largest components:")
		for i := 1; i < len(sizes) && i <= 5; i++ {
			fmt.Printf("  component %d: %d vertices\n", i, sizes[i])
		}
	}
}
