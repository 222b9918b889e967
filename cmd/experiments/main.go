// Command experiments regenerates the paper's tables and figures on this
// machine. Each experiment prints the same rows or series the paper reports,
// at laptop scale (the perfmodel supplies machine-scale projections for the
// scaling figures; DESIGN.md documents the substitution).
//
// Usage:
//
//	experiments -list
//	experiments -exp fig12 -scale 16 -ranks 16
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id: table1, fig2, fig5, fig9, fig10, fig11, fig12, fig13, fig14, fig15, capacity, extensions")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		scale   = flag.Int("scale", 16, "graph SCALE for measured experiments")
		ranks   = flag.Int("ranks", 16, "rank count for measured experiments")
		measure = flag.Bool("measure", true, "include measured runs alongside model projections")
	)
	flag.Parse()

	switch {
	case *list:
		fmt.Println("table1  partitioning method comparison, vanilla 1D to 1.5D (Table 1)")
		fmt.Println("fig2    R-MAT degree distribution")
		fmt.Println("fig5    per-iteration activation by class")
		fmt.Println("fig9    weak scalability (model + measured)")
		fmt.Println("fig10   time share by subgraph")
		fmt.Println("fig11   time share by communication type")
		fmt.Println("fig12   GTEPS vs (E,H) threshold grid")
		fmt.Println("fig13   partitioned subgraph balance")
		fmt.Println("fig14   bucketing throughput (psort scatter; chip not modeled)")
		fmt.Println("fig15   ablation: whole-iteration vs sub-iteration direction")
		fmt.Println("capacity per-node memory of the three schemes at SCALE 44")
		fmt.Println("extensions SSSP / PageRank / WCC / reachability on the same partitioning")
	case *all:
		reports, err := experiments.All(*scale, *ranks, *measure)
		for _, r := range reports {
			fmt.Println(r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id), *scale, *ranks, *measure)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Println(r)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
