// Package experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale, printing the same rows/series the
// paper reports. cmd/experiments exposes them on the command line and the
// repository-root benchmarks wrap them as testing.B targets; EXPERIMENTS.md
// records paper-vs-measured values for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/rmat"
	"repro/internal/sssp"
	"repro/internal/stats"
	"repro/internal/sunway"
	"repro/internal/topology"
	"repro/internal/validate"
)

// Report is one experiment's regenerated output.
type Report struct {
	ID    string
	Title string
	Lines []string
}

func (r Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s\n", r.ID, r.Title, strings.Join(r.Lines, "\n"))
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// genGraph builds the standard workload for the experiments.
func genGraph(scale int, seed uint64) (int64, []rmat.Edge) {
	cfg := rmat.Config{Scale: scale, Seed: seed}
	return cfg.NumVertices(), rmat.Generate(cfg)
}

// runGTEPS runs nroots BFS traversals and returns harmonic-mean GTEPS.
func runGTEPS(eng *core.Engine, n int64, edges []rmat.Edge, nroots int) (float64, error) {
	deg := eng.Part.Degrees
	var invSum float64
	count := 0
	for root := int64(0); root < n && count < nroots; root++ {
		if deg[root] == 0 {
			continue
		}
		res, err := eng.Run(root)
		if err != nil {
			return 0, err
		}
		if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
			return 0, fmt.Errorf("root %d: %w", root, err)
		}
		teps := float64(res.TraversedEdges) / res.Time.Seconds()
		invSum += 1 / teps
		count++
	}
	return float64(count) / invSum / 1e9, nil
}

// Table1 reproduces the partitioning-method comparison: the same engine run
// as 1D-with-delegates (no H class), 2D (no L class), and degree-aware 1.5D,
// echoing Table 1's methods column with measured GTEPS on our substrate.
func Table1(scale, ranks, nroots int) (Report, error) {
	rep := Report{ID: "table1", Title: "Partitioning methods (paper Table 1 context)"}
	n, edges := genGraph(scale, 42)
	th := core.DefaultThresholds(scale)
	configs := []struct {
		name string
		th   partition.Thresholds
	}{
		{"1D + heavy delegates (|H|=0)", partition.Thresholds{E: th.H, H: th.H}},
		{"2D (|L|=0)", partition.Thresholds{E: th.E, H: 1}},
		{"degree-aware 1.5D (ours)", th},
	}
	rep.addf("%-32s %10s %8s", "partitioning", "GTEPS", "hubs")
	var gteps []float64
	for _, cfg := range configs {
		eng, err := core.NewEngine(n, edges, core.Options{Ranks: ranks, Thresholds: cfg.th})
		if err != nil {
			return rep, err
		}
		g, err := runGTEPS(eng, n, edges, nroots)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", cfg.name, err)
		}
		gteps = append(gteps, g)
		rep.addf("%-32s %10.3f %8d", cfg.name, g, eng.Part.Hubs.K())
	}
	// Vanilla 1D without any delegation: the pre-delegation strawman whose
	// per-edge messaging is the wall every Table 1 method attacks.
	base, err := baseline.New(n, edges, baseline.Options{Ranks: ranks})
	if err != nil {
		return rep, err
	}
	root := int64(0)
	for v, d := range base.Degrees() {
		if d > 0 {
			root = int64(v)
			break
		}
	}
	bres, err := base.Run(root)
	if err != nil {
		return rep, err
	}
	if _, err := validate.BFS(n, edges, root, bres.Parent); err != nil {
		return rep, fmt.Errorf("vanilla 1D: %w", err)
	}
	bteps := float64(bres.EdgesTouched) / bres.Time.Seconds() / 1e9
	rep.addf("%-32s %10.3f %8d   (%d remote messages)", "vanilla 1D (no delegation)", bteps, 0, bres.MessagesSent)
	rep.addf("paper records: 1D+delegates 15,363-23,756; 2D 38,621-102,956; 1.5D 180,792 GTEPS (at machine scale)")
	rep.addf("speedup of 1.5D over 1D-delegates: %.2fx; over 2D: %.2fx", gteps[2]/gteps[0], gteps[2]/gteps[1])
	return rep, nil
}

// Fig2 reproduces the degree distribution of a Graph 500 graph: log2-binned
// counts whose comb-like heavy tail matches the paper's Figure 2 shape.
func Fig2(scale int) Report {
	rep := Report{ID: "fig2", Title: fmt.Sprintf("Degree distribution, SCALE %d (paper Fig. 2 at SCALE 40)", scale)}
	n, edges := genGraph(scale, 42)
	hist := rmat.DegreeHistogram(rmat.Degrees(n, edges))
	rep.addf("%-14s %12s  %s", "degree bin", "vertices", "log scale")
	for b, c := range hist {
		if c == 0 {
			continue
		}
		label := "0"
		if b > 0 {
			label = fmt.Sprintf("[%d,%d)", 1<<uint(b-1), 1<<uint(b))
		}
		bar := strings.Repeat("#", len(fmt.Sprintf("%d", c)))
		rep.addf("%-14s %12d  %s", label, c, bar)
	}
	return rep
}

// Fig5 reproduces the per-iteration activation breakdown by class: E and H
// activate densely in early iterations, L later.
func Fig5(scale, ranks int) (Report, error) {
	rep := Report{ID: "fig5", Title: "Active vertices per iteration by class (paper Fig. 5)"}
	n, edges := genGraph(scale, 42)
	eng, err := core.NewEngine(n, edges, core.Options{Ranks: ranks})
	if err != nil {
		return rep, err
	}
	res, err := eng.Run(firstConnectedRoot(eng))
	if err != nil {
		return rep, err
	}
	numE := int64(eng.Part.Hubs.NumE)
	numH := int64(eng.Part.Hubs.NumH)
	numL := n - numE - numH
	rep.addf("%4s %10s %10s %10s  %8s %8s %8s", "iter", "E", "H", "L", "%E", "%H", "%L")
	pct := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	for i, it := range res.Trace {
		rep.addf("%4d %10d %10d %10d  %7.2f%% %7.2f%% %7.2f%%", i+1,
			it.ActiveE, it.ActiveH, it.ActiveL,
			pct(it.ActiveE, numE), pct(it.ActiveH, numH), pct(it.ActiveL, numL))
	}
	return rep, nil
}

// Fig9 reproduces weak scalability: the perfmodel projection at the paper's
// node counts next to the paper's reported values, plus measured laptop-
// scale points for grounding.
func Fig9(measure bool) (Report, error) {
	rep := Report{ID: "fig9", Title: "Weak scalability (paper Fig. 9)"}
	m := perfmodel.DefaultModel()
	projs, eff := m.WeakScaling()
	rep.addf("%-8s %-8s %14s %14s %9s", "scale", "nodes", "model GTEPS", "paper GTEPS", "model/paper")
	for i, p := range projs {
		rep.addf("%-8d %-8d %14.0f %14.0f %9.2f",
			p.Workload.Scale, p.Workload.Nodes, p.GTEPS, perfmodel.PaperGTEPS[i], p.GTEPS/perfmodel.PaperGTEPS[i])
	}
	rep.addf("relative parallel efficiency at full scale: model %.0f%% (paper: 52%%)", 100*eff)
	if measure {
		rep.addf("measured in-process weak scaling (shape grounding):")
		for _, pt := range []struct{ scale, ranks int }{{14, 1}, {15, 2}, {16, 4}, {17, 8}, {18, 16}} {
			n, edges := genGraph(pt.scale, 42)
			eng, err := core.NewEngine(n, edges, core.Options{Ranks: pt.ranks})
			if err != nil {
				return rep, err
			}
			g, err := runGTEPS(eng, n, edges, 3)
			if err != nil {
				return rep, err
			}
			rep.addf("  scale %d on %2d ranks: %.3f GTEPS", pt.scale, pt.ranks, g)
		}
	}
	return rep, nil
}

// Fig10 reproduces the time breakdown by subgraph over the scaling points,
// from the perfmodel plus one measured breakdown.
func Fig10(measure bool) (Report, error) {
	rep := Report{ID: "fig10", Title: "Time share by subgraph (paper Fig. 10)"}
	m := perfmodel.DefaultModel()
	names := append(append([]string{}, perfmodel.ComponentNames...), "reduce", "other")
	header := fmt.Sprintf("%-8s %-8s", "scale", "nodes")
	for _, c := range names {
		header += fmt.Sprintf(" %7s", c)
	}
	rep.Lines = append(rep.Lines, header)
	for _, w := range perfmodel.PaperPoints {
		p := m.Project(w)
		line := fmt.Sprintf("%-8d %-8d", w.Scale, w.Nodes)
		for _, c := range names {
			line += fmt.Sprintf(" %6.1f%%", 100*p.SubgraphShare[c])
		}
		rep.Lines = append(rep.Lines, line)
	}
	if measure {
		bd, err := measuredBreakdown(18, 16)
		if err != nil {
			return rep, err
		}
		rep.addf("measured at scale 18, 16 ranks (time share):")
		line := "  "
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			line += fmt.Sprintf(" %s=%.1f%%", p, 100*bd[p])
		}
		rep.Lines = append(rep.Lines, line)
	}
	return rep, nil
}

func measuredBreakdown(scale, ranks int) ([stats.NumPhases]float64, error) {
	var out [stats.NumPhases]float64
	n, edges := genGraph(scale, 42)
	eng, err := core.NewEngine(n, edges, core.Options{Ranks: ranks})
	if err != nil {
		return out, err
	}
	res, err := eng.Run(firstConnectedRoot(eng))
	if err != nil {
		return out, err
	}
	return res.Recorder.PhaseShare(), nil
}

// Fig11 reproduces the time breakdown by communication type.
func Fig11(measure bool) (Report, error) {
	rep := Report{ID: "fig11", Title: "Time share by communication type (paper Fig. 11)"}
	m := perfmodel.DefaultModel()
	cats := []string{"compute", "imbalance/latency", "alltoallv", "allgather", "reduce_scatter", "other"}
	header := fmt.Sprintf("%-8s %-8s", "scale", "nodes")
	for _, c := range cats {
		header += fmt.Sprintf(" %18s", c)
	}
	rep.Lines = append(rep.Lines, header)
	for _, w := range perfmodel.PaperPoints {
		p := m.Project(w)
		line := fmt.Sprintf("%-8d %-8d", w.Scale, w.Nodes)
		for _, c := range cats {
			line += fmt.Sprintf(" %17.1f%%", 100*p.CommShare[c])
		}
		rep.Lines = append(rep.Lines, line)
	}
	if measure {
		n, edges := genGraph(18, 42)
		eng, err := core.NewEngine(n, edges, core.Options{Ranks: 16})
		if err != nil {
			return rep, err
		}
		res, err := eng.Run(firstConnectedRoot(eng))
		if err != nil {
			return rep, err
		}
		v := res.Recorder.CommBreakdown()
		rep.addf("measured volumes at scale 18, 16 ranks (bytes, intra+inter supernode):")
		rep.addf("  alltoallv=%d allgather=%d reduce_scatter=%d",
			v.IntraBytes[0]+v.InterBytes[0], v.IntraBytes[1]+v.InterBytes[1], v.IntraBytes[2]+v.InterBytes[2])
	}
	return rep, nil
}

// Fig12 reproduces the degree-threshold grid search: BFS GTEPS for
// combinations of E and H thresholds (paper Fig. 12 at SCALE 35 on 256
// nodes; here at reduced scale with scale-appropriate threshold values).
func Fig12(scale, ranks, nroots int) (Report, error) {
	rep := Report{ID: "fig12", Title: "GTEPS vs (E,H) degree thresholds (paper Fig. 12)"}
	n, edges := genGraph(scale, 42)
	base := core.DefaultThresholds(scale)
	hVals := []int64{base.H / 4, base.H, base.H * 4, base.H * 16}
	eVals := []int64{base.E / 4, base.E, base.E * 4, base.E * 16}
	header := fmt.Sprintf("%12s", "E\\H")
	for _, h := range hVals {
		header += fmt.Sprintf(" %10d", h)
	}
	rep.Lines = append(rep.Lines, header)
	best, bestG := "", 0.0
	for _, e := range eVals {
		line := fmt.Sprintf("%12d", e)
		for _, h := range hVals {
			if e < h {
				line += fmt.Sprintf(" %10s", "-") // invalid cell, as in the paper's zeros
				continue
			}
			eng, err := core.NewEngine(n, edges, core.Options{Ranks: ranks, Thresholds: partition.Thresholds{E: e, H: h}})
			if err != nil {
				return rep, err
			}
			g, err := runGTEPS(eng, n, edges, nroots)
			if err != nil {
				return rep, err
			}
			line += fmt.Sprintf(" %10.3f", g)
			if g > bestG {
				bestG, best = g, fmt.Sprintf("E=%d H=%d", e, h)
			}
		}
		rep.Lines = append(rep.Lines, line)
	}
	rep.addf("best cell: %s at %.3f GTEPS (paper's best at SCALE 35: E=2048, H=512-128 band)", best, bestG)
	return rep, nil
}

// Fig13 reproduces the per-partition subgraph size balance: min/max/mean
// stored edges per rank for each of the six components.
func Fig13(scale, ranks int) (Report, error) {
	rep := Report{ID: "fig13", Title: "Partitioned subgraph size balance (paper Fig. 13)"}
	n, edges := genGraph(scale, 42)
	mesh := topology.SquarestMesh(ranks)
	p, err := partition.Build(n, edges, mesh, core.DefaultThresholds(scale), 0)
	if err != nil {
		return rep, err
	}
	rep.addf("%-8s %12s %12s %12s %12s %9s", "comp", "min", "max", "mean", "max/mean", "spread")
	for _, st := range p.Balance() {
		if st.Mean == 0 {
			continue
		}
		spread := float64(st.Max-st.Min) / st.Mean
		rep.addf("%-8s %12d %12d %12.0f %12.3f %8.2f%%",
			st.Component, st.Min, st.Max, st.Mean, float64(st.Max)/st.Mean, 100*spread)
	}
	rep.addf("paper at full scale: EH2EH max/avg = 1.028 (2.8%%), others within 0.17%%")
	// The spread shrinks with edges-per-cell (law of large numbers); the
	// paper's 2.8%% corresponds to ~10^9 edges per cell. Demonstrate the
	// trend across scales at fixed rank count.
	rep.addf("EH2EH max/mean vs scale (%d ranks):", ranks)
	for s := scale - 4; s <= scale; s += 2 {
		if s < 8 {
			continue
		}
		ns, es := genGraph(s, 42)
		ps, err := partition.Build(ns, es, mesh, core.DefaultThresholds(s), 0)
		if err != nil {
			return rep, err
		}
		st := ps.Balance()[partition.CompEH2EH]
		if st.Mean > 0 {
			rep.addf("  scale %2d: %.3f", s, float64(st.Max)/st.Mean)
		}
	}
	return rep, nil
}

// Capacity reproduces the 8x-capacity headline as the memory argument of
// Section 2.3: modeled per-node bytes for the three partitioning schemes at
// SCALE 44 on 103,912 x 96 GiB nodes.
func Capacity() Report {
	rep := Report{ID: "capacity", Title: "Per-node memory at SCALE 44 (paper Section 2.3 / 8x capacity headline)"}
	oneD, twoD := perfmodel.PaperSection23Delegates()
	rep.addf("paper's per-node delegate counts: 1D needs %.2e vertices, 2D shares %.2e (both untenable)", oneD, twoD)
	rep.addf("%-24s %12s %14s %12s %10s %6s", "scheme", "edges (GiB)", "delegates (GiB)", "local (GiB)", "total", "fits?")
	for _, r := range perfmodel.AnalyzeCapacity(perfmodel.Graph500Capacity()) {
		gib := func(b float64) float64 { return b / (1 << 30) }
		rep.addf("%-24s %12.1f %14.1f %12.1f %9.1f %6v",
			r.Scheme, gib(r.EdgeBytes), gib(r.DelegateBytes), gib(r.FrontierBytes), gib(r.TotalBytes), r.Fits)
	}
	rep.addf("the 96 GiB node budget admits only the 1.5D scheme at SCALE 44 — the 8x capacity jump over the 35.2T-edge record")
	return rep
}

// Extensions summarizes the beyond-the-paper workloads the core driver runs
// on the same partitioning: SSSP (Graph 500 kernel 2), PageRank, connected
// components, and reachability from the SSSP root.
func Extensions(scale, ranks int) (Report, error) {
	rep := Report{ID: "extensions", Title: "Beyond the paper: kernel 2 and the Section 8 analytics direction"}
	n, edges := genGraph(scale, 42)
	eng, err := core.NewEngine(n, edges, core.Options{Ranks: ranks})
	if err != nil {
		return rep, err
	}
	root := int64(0)
	for v, d := range eng.Part.Degrees {
		if d > 0 {
			root = int64(v)
			break
		}
	}
	sres, err := eng.RunSSSP(root, 7, 0)
	if err != nil {
		return rep, err
	}
	if err := sssp.ValidateResult(n, edges, 7, &sssp.Result{
		Root: root, Dist: sres.Dist, Parent: sres.Parent,
	}); err != nil {
		return rep, err
	}
	rep.addf("SSSP (kernel 2): %d rounds, %d relaxations, %v (validated against optimality conditions)",
		sres.Iterations, sres.Relaxations, sres.Time.Round(time.Millisecond))
	pr, err := eng.RunPageRank(0.85, 1e-8, 200)
	if err != nil {
		return rep, err
	}
	rep.addf("PageRank: converged in %d iterations (delta %.1e) in %v", pr.Iterations, pr.Delta, pr.Time.Round(time.Millisecond))
	wcc, err := eng.RunWCC()
	if err != nil {
		return rep, err
	}
	rep.addf("connected components: %d components in %d label rounds, %v", wcc.Components, wcc.Iterations, wcc.Time.Round(time.Millisecond))
	reach, err := eng.Run(root)
	if err != nil {
		return rep, err
	}
	covered := 0
	for _, p := range reach.Parent {
		if p >= 0 {
			covered++
		}
	}
	rep.addf("reachability: %d vertices reached from root %d in %d rounds", covered, root, reach.Iterations)
	return rep, nil
}

// Fig14 reproduces the OCS-RMA bucketing throughput comparison: sequential
// MPE baseline vs the OCS organization on 1 and 6 core groups, bucketing
// uniformly random 64-bit integers by their low 8 bits.
func Fig14(totalMB int) Report {
	rep := Report{ID: "fig14", Title: "On-chip sorting with RMA throughput (paper Fig. 14)"}
	nKeys := totalMB << 20 / 8
	keys := make([]uint64, nKeys)
	rng := rmatRand(99)
	for i := range keys {
		keys[i] = rng()
	}
	f := func(x uint64) int { return int(x & 0xFF) }
	model := sunway.DefaultChipModel()
	bench := func(name string, cgs int, fn func(*sunway.Counters)) (float64, float64) {
		c := &sunway.Counters{}
		start := time.Now()
		fn(c)
		sec := time.Since(start).Seconds()
		host := float64(nKeys*8) / sec / 1e9
		snap := c.Snapshot()
		if cgs == 0 {
			// The MPE path performs one dependent load+store per record.
			snap.GLDGSTOps = int64(nKeys) * 2
		}
		modeled := model.BucketThroughput(snap, cgs, int64(nKeys)) / 1e9
		rep.addf("%-8s host %8.3f GB/s   SW26010-Pro modeled %8.3f GB/s   (RMA puts %d, atomics %d)",
			name, host, modeled, snap.RMAPuts, snap.AtomicOps)
		return host, modeled
	}
	_, mpeM := bench("MPE", 0, func(c *sunway.Counters) { sunway.BucketMPE(keys, 256, f) })
	_, cg1M := bench("1 CG", 1, func(c *sunway.Counters) {
		sunway.BucketOCS(keys, 256, f, sunway.OCSConfig{CGs: 1, Counters: c})
	})
	_, cg6M := bench("6 CGs", 6, func(c *sunway.Counters) {
		sunway.BucketOCS(keys, 256, f, sunway.OCSConfig{CGs: 6, Counters: c})
	})
	rep.addf("modeled speedup 6CG/MPE: %.0fx (paper: 1443x); 6CG vs 1CG: %.2fx (paper: 4.69x)",
		cg6M/mpeM, cg6M/cg1M)
	rep.addf("paper values: MPE 0.0406, 1 CG 12.5, 6 CGs 58.6 GB/s (47.0%% of peak memory bandwidth)")
	rep.addf("host throughput reflects this machine's core count; the model prices the measured event counts on the chip constants")
	return rep
}

func rmatRand(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// Fig15 reproduces the optimization ablation: (a) vanilla whole-iteration
// direction optimization, (b) + sub-iteration direction optimization,
// (c) + core-subgraph segmenting; time broken into EH2EH/other push/pull.
func Fig15(scale, ranks, reps int) (Report, error) {
	rep := Report{ID: "fig15", Title: "Ablation: baseline / +sub-iteration / +segmenting (paper Fig. 15)"}
	n, edges := genGraph(scale, 42)
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"baseline", core.Options{Ranks: ranks, Direction: core.ModeWholeIteration}},
		{"+sub-iter", core.Options{Ranks: ranks, Direction: core.ModeSubIteration}},
		{"+segment", core.Options{Ranks: ranks, Direction: core.ModeSubIteration, Segmented: true}},
	}
	rep.addf("%-10s %12s %12s %12s %12s %12s %14s", "config", "EH2EH pull", "others pull", "EH2EH push", "others push", "other", "edges touched")
	type rowT struct {
		name  string
		total time.Duration
	}
	var rows []rowT
	for _, cfg := range configs {
		eng, err := core.NewEngine(n, edges, cfg.opt)
		if err != nil {
			return rep, err
		}
		root := firstConnectedRoot(eng)
		agg := &stats.Recorder{}
		var edgesTouched int64
		for r := 0; r < reps; r++ {
			res, err := eng.Run(root)
			if err != nil {
				return rep, err
			}
			agg.Merge(res.Recorder)
			edgesTouched = res.Recorder.TotalEdges()
		}
		var ehPull, ehPush, otherPull, otherPush, rest time.Duration
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			pull := agg.Time[p][stats.DirPull]
			push := agg.Time[p][stats.DirPush]
			none := agg.Time[p][stats.DirNone]
			if p == stats.PhaseEH2EH {
				ehPull += pull
				ehPush += push
			} else {
				otherPull += pull
				otherPush += push
			}
			rest += none
		}
		d := func(t time.Duration) string {
			return fmt.Sprintf("%.2fms", float64(t.Microseconds())/1e3/float64(reps))
		}
		rep.addf("%-10s %12s %12s %12s %12s %12s %14d", cfg.name, d(ehPull), d(otherPull), d(ehPush), d(otherPush), d(rest), edgesTouched)
		rows = append(rows, rowT{cfg.name, agg.TotalTime()})
	}
	rep.addf("paper: sub-iteration shifts E/H push time into cheaper pulls; segmenting speeds EH2EH pull ~9x on silicon")
	_ = rows
	return rep, nil
}

func firstConnectedRoot(eng *core.Engine) int64 {
	for v, d := range eng.Part.Degrees {
		if d > 0 {
			return int64(v)
		}
	}
	return 0
}

// All runs every experiment at the given default sizes and returns the
// reports in figure order.
func All(scale, ranks int, measure bool) ([]Report, error) {
	var out []Report
	add := func(r Report, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	if err := add(Table1(scale, ranks, 4)); err != nil {
		return out, err
	}
	out = append(out, Fig2(scale))
	if err := add(Fig5(scale, ranks)); err != nil {
		return out, err
	}
	if err := add(Fig9(measure)); err != nil {
		return out, err
	}
	if err := add(Fig10(measure)); err != nil {
		return out, err
	}
	if err := add(Fig11(measure)); err != nil {
		return out, err
	}
	if err := add(Fig12(scale, ranks, 2)); err != nil {
		return out, err
	}
	if err := add(Fig13(scale, 64)); err != nil {
		return out, err
	}
	out = append(out, Fig14(64))
	if err := add(Fig15(scale, ranks, 3)); err != nil {
		return out, err
	}
	out = append(out, Capacity())
	return out, nil
}

// ByID runs one experiment by its id string.
func ByID(id string, scale, ranks int, measure bool) (Report, error) {
	switch strings.ToLower(id) {
	case "table1":
		return Table1(scale, ranks, 4)
	case "fig2":
		return Fig2(scale), nil
	case "fig5":
		return Fig5(scale, ranks)
	case "fig9":
		return Fig9(measure)
	case "fig10":
		return Fig10(measure)
	case "fig11":
		return Fig11(measure)
	case "fig12":
		return Fig12(scale, ranks, 2)
	case "fig13":
		return Fig13(scale, 64)
	case "fig14":
		return Fig14(64), nil
	case "capacity":
		return Capacity(), nil
	case "extensions":
		return Extensions(scale, ranks)
	case "fig15":
		return Fig15(scale, ranks, 3)
	}
	ids := []string{"table1", "fig2", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "capacity", "extensions"}
	sort.Strings(ids)
	return Report{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
