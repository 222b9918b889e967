// Analytics beyond BFS: the paper's Discussion section argues its techniques
// generalize ("One of our future work will be designing and implementing the
// next-generation ShenTu ... upon the proposed techniques"). This example
// runs three of the additional algorithms the engine's driver carries on the
// same 1.5D partitioning: single-source shortest path (the Graph 500 second
// kernel), PageRank, and connected components.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	g := graph500.Generate(graph500.GenConfig{Scale: 13, Seed: 4})
	fmt.Printf("graph: %d vertices, %d edges, 4 ranks\n\n", g.NumVertices, len(g.Edges))
	r, err := graph500.New(g, graph500.Config{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 1. SSSP with Graph 500 uniform [0,1) weights, validated.
	res, err := r.SSSPValidated(0, 7)
	if err != nil {
		log.Fatal(err)
	}
	reached, far := 0, 0.0
	for v := int64(0); v < g.NumVertices; v++ {
		if res.Parent[v] >= 0 {
			reached++
			if res.Dist[v] > far {
				far = res.Dist[v]
			}
		}
	}
	fmt.Printf("SSSP from 0: %d vertices reached in %d rounds; eccentricity %.4f; %d relaxations\n",
		reached, res.Iterations, far, res.Relaxations)

	// 2. PageRank to convergence.
	pr, err := r.PageRank(0.85, 1e-9, 200)
	if err != nil {
		log.Fatal(err)
	}
	type vr struct {
		v int64
		r float64
	}
	top := make([]vr, 0, g.NumVertices)
	for v, r := range pr.Rank {
		top = append(top, vr{int64(v), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Printf("\nPageRank converged in %d iterations (delta %.2e); top 5:\n", pr.Iterations, pr.Delta)
	for i := 0; i < 5; i++ {
		fmt.Printf("  vertex %6d: %.6f\n", top[i].v, top[i].r)
	}

	// 3. Connected components.
	wcc, err := r.ConnectedComponents()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconnected components: %d (in %d label-propagation rounds)\n",
		wcc.Components, wcc.Iterations)
}
