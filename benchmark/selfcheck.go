package main

import (
	"fmt"
	"io"
	"math"
)

// runSelfcheck runs the whole untraced set twice and compares every gated
// metric of every workload between the two: the benchmark's own bounds are
// only worth gating on if the same code stays inside them.
func runSelfcheck(w io.Writer, cfg config) error {
	cfg.trace = false
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(w, "== selfcheck: set %d of 2\n", i+1)
		rs, err := runSet(w, cfg)
		if err != nil {
			return err
		}
		sets[i] = rs
	}
	fmt.Fprintln(w, "== selfcheck: second set against first")
	fmt.Fprintf(w, "  %-20s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	bad := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Correct || !b.Correct {
			bad++
			fmt.Fprintf(w, "  %-20s produced wrong or failed operations\n", a.Workload)
		}
		for j, g := range gates {
			va, vb := a.EndToEnd[j].Value, b.EndToEnd[j].Value
			change := (vb - va) / va
			verdict := ""
			if math.Abs(change) > g.bound {
				bad++
				verdict = "  OUTSIDE BOUND"
			}
			fmt.Fprintf(w, "  %-20s %-12s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				a.Workload, g.name, va, vb, change*100, g.bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d gated metrics did not repeat within their bounds", bad)
	}
	return nil
}
