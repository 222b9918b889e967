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
	var ids []string
	for _, x := range experiments.Registry {
		ids = append(ids, x.ID)
	}
	var (
		exp     = flag.String("exp", "", "comma-separated experiment ids: "+strings.Join(ids, ", "))
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		scale   = flag.Int("scale", 16, "graph SCALE for measured experiments")
		ranks   = flag.Int("ranks", 16, "rank count for measured experiments")
		measure = flag.Bool("measure", true, "include measured runs alongside model projections")
	)
	flag.Parse()

	switch {
	case *list:
		for _, x := range experiments.Registry {
			fmt.Printf("%-10s %s\n", x.ID, x.Summary)
		}
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
