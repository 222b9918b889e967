// Package experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale, printing the same rows/series the
// paper reports. Registry is the one list of exhibits; cmd/experiments
// exposes it on the command line and EXPERIMENTS.md records paper-vs-measured
// values for each. Every measured BFS row runs through graph500.New and
// Runner.Benchmark: GTEPS is the harmonic mean over sampled, validated roots,
// as bfsbench reports it.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	graph500 "repro"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/psort"
	"repro/internal/stats"
	"repro/internal/topology"
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

// Exhibit is one registered exhibit: its id, a one-line summary and the
// function that regenerates it for a SCALE, a rank count and whether to
// measure beside the model.
type Exhibit struct {
	ID, Summary string
	Run         func(scale, ranks int, measure bool) (Report, error)
}

// Registry lists every exhibit in paper order. All, ByID and the command's
// -list and -exp all read it.
var Registry = []Exhibit{
	{"table1", "partitioning method comparison, vanilla 1D to 1.5D (Table 1)",
		func(scale, ranks int, _ bool) (Report, error) { return Table1(scale, ranks, 4) }},
	{"fig2", "R-MAT degree distribution",
		func(scale, _ int, _ bool) (Report, error) { return Fig2(scale), nil }},
	{"fig5", "per-iteration activation by class",
		func(scale, ranks int, _ bool) (Report, error) { return Fig5(scale, ranks) }},
	{"fig9", "weak scalability (model + measured)", Fig9},
	{"fig10", "time share by subgraph", Fig10},
	{"fig11", "time share by communication type", Fig11},
	{"fig12", "GTEPS vs (E,H) threshold grid",
		func(scale, ranks int, _ bool) (Report, error) { return Fig12(scale, ranks, 2) }},
	{"fig13", "partitioned subgraph balance",
		func(scale, _ int, _ bool) (Report, error) { return Fig13(scale, 64) }},
	{"fig14", "bucketing throughput (psort scatter; chip not modeled)",
		func(_, _ int, _ bool) (Report, error) { return Fig14(64), nil }},
	{"fig15", "ablation: direction and L2L forwarding",
		func(scale, ranks int, _ bool) (Report, error) { return Fig15(scale, ranks, 3) }},
	{"capacity", "per-node memory of the three schemes at SCALE 44",
		func(_, _ int, _ bool) (Report, error) { return Capacity(), nil }},
	{"extensions", "SSSP / PageRank / WCC / reachability on the same partitioning",
		func(scale, ranks int, _ bool) (Report, error) { return Extensions(scale, ranks) }},
}

// seed is the graph generator's seed; the sampled roots use seed+1, as
// bfsbench's do.
const seed = 42

// bench partitions g under cfg and runs Runner.Benchmark from roots
// sampled, validated roots — the same roots for every cfg on one graph.
func bench(g graph500.Graph, cfg graph500.Config, roots int) (*graph500.BenchmarkSummary, error) {
	r, err := graph500.New(g, cfg)
	if err != nil {
		return nil, err
	}
	return r.Benchmark(roots, seed+1)
}

// l2lPerBFS is one BFS's L2L collective calls and bytes, averaged over the
// runs sum aggregates.
func l2lPerBFS(sum *graph500.BenchmarkSummary) (calls, bytes int64) {
	v := sum.Recorder.Volumes[stats.PhaseL2L]
	for _, c := range v.Calls {
		calls += c
	}
	runs := int64(len(sum.Roots))
	return calls / runs, v.TotalBytes() / runs
}

// table1Repeats is how often Table1 times each row. One timing per row swung
// 0.06-0.14 GTEPS between runs of the same code on a shared 2-vCPU host, so a
// row prints the median and the range.
const table1Repeats = 3

// Table1 reproduces the partitioning-method comparison: the same engine run
// as vanilla 1D (no vertex delegated), 1D-with-delegates (no H class), 2D
// (no L class), and degree-aware 1.5D, echoing Table 1's methods column with
// measured GTEPS on our substrate. The L2L columns are one BFS's L2L
// collectives: the per-edge messaging delegation exists to cut. Each row's
// GTEPS is timed table1Repeats times over the same nroots sampled roots.
func Table1(scale, ranks, nroots int) (Report, error) {
	rep := Report{Title: "Partitioning methods (paper Table 1 context)"}
	g := graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed})
	th := core.DefaultThresholds(scale)
	configs := []struct {
		name string
		th   partition.Thresholds
	}{
		{"vanilla 1D (no delegation)", partition.Thresholds{E: math.MaxInt64, H: math.MaxInt64}},
		{"1D + heavy delegates (|H|=0)", partition.Thresholds{E: th.H, H: th.H}},
		{"2D (|L|=0)", partition.Thresholds{E: th.E, H: 1}},
		{"degree-aware 1.5D (ours)", th},
	}
	rep.addf("%-32s %10s %16s %8s %10s %12s", "partitioning", "GTEPS", "[min, max]", "hubs", "L2L calls", "L2L bytes")
	var runs [][]float64
	for _, cfg := range configs {
		r, err := graph500.New(g, graph500.Config{Ranks: ranks, Thresholds: cfg.th})
		if err != nil {
			return rep, err
		}
		gs := make([]float64, table1Repeats)
		var sum *graph500.BenchmarkSummary
		for i := range gs {
			if sum, err = r.Benchmark(nroots, seed+1); err != nil {
				return rep, fmt.Errorf("%s: %w", cfg.name, err)
			}
			gs[i] = sum.GTEPS()
		}
		sort.Float64s(gs)
		runs = append(runs, gs)
		calls, bytes := l2lPerBFS(sum)
		rep.addf("%-32s %10.3f %16s %8d %10d %12d", cfg.name, gs[len(gs)/2], fmt.Sprintf("[%.3f, %.3f]", gs[0], gs[len(gs)-1]),
			r.Engine.Part.Hubs.K(), calls, bytes)
	}
	rep.addf("paper records: 1D+delegates 15,363-23,756; 2D 38,621-102,956; 1.5D 180,792 GTEPS (at machine scale)")
	// A ratio of medians whose two rows' ranges overlap is not told apart
	// from 1 by these runs.
	speedup := func(a, b []float64) string {
		s := fmt.Sprintf("%.2fx", a[len(a)/2]/b[len(b)/2])
		if a[0] <= b[len(b)-1] && b[0] <= a[len(a)-1] {
			s += " (within spread)"
		}
		return s
	}
	rep.addf("speedup of 1.5D over vanilla 1D: %s; over 1D-delegates: %s; over 2D: %s (medians)",
		speedup(runs[3], runs[0]), speedup(runs[3], runs[1]), speedup(runs[3], runs[2]))
	return rep, nil
}

// Fig2 reproduces the degree distribution of a Graph 500 graph: log2-binned
// counts whose comb-like heavy tail matches the paper's Figure 2 shape.
func Fig2(scale int) Report {
	rep := Report{Title: fmt.Sprintf("Degree distribution, SCALE %d (paper Fig. 2 at SCALE 40)", scale)}
	hist := graph500.DegreeHistogram(graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed}))
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
// activate densely in early iterations, L later. It traces one validated BFS
// from a sampled root.
func Fig5(scale, ranks int) (Report, error) {
	rep := Report{Title: "Active vertices per iteration by class (paper Fig. 5)"}
	g := graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed})
	r, err := graph500.New(g, graph500.Config{Ranks: ranks})
	if err != nil {
		return rep, err
	}
	roots, err := r.SampleRoots(1, seed+1)
	if err != nil {
		return rep, err
	}
	res, err := r.RunValidated(roots[0])
	if err != nil {
		return rep, err
	}
	numE := int64(r.Engine.Part.Hubs.NumE)
	numH := int64(r.Engine.Part.Hubs.NumH)
	numL := g.NumVertices - numE - numH
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
// scale points for grounding, a weak-scaling ladder that halves the ranks and
// drops one SCALE per step and ends at (scale, ranks).
func Fig9(scale, ranks int, measure bool) (Report, error) {
	rep := Report{Title: "Weak scalability (paper Fig. 9)"}
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
		steps := 0 // the ladder starts at (scale-steps, ranks>>steps)
		for ranks>>(steps+1) > 0 && scale-steps > 1 {
			steps++
		}
		for i := steps; i >= 0; i-- {
			s, r := scale-i, ranks>>i
			sum, err := bench(graph500.Generate(graph500.GenConfig{Scale: s, Seed: seed}), graph500.Config{Ranks: r}, 3)
			if err != nil {
				return rep, err
			}
			rep.addf("  scale %d on %2d ranks: %.3f GTEPS", s, r, sum.GTEPS())
		}
	}
	return rep, nil
}

// measuredAt is the recorder of one validated BFS from a sampled root on the
// standard graph at scale over ranks: the measured rows of Figures 10 and 11.
func measuredAt(scale, ranks int) (*stats.Recorder, error) {
	sum, err := bench(graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed}), graph500.Config{Ranks: ranks}, 1)
	if err != nil {
		return nil, err
	}
	return &sum.Recorder, nil
}

// Fig10 reproduces the time breakdown by subgraph over the scaling points,
// from the perfmodel plus one measured breakdown at (scale, ranks).
func Fig10(scale, ranks int, measure bool) (Report, error) {
	rep := Report{Title: "Time share by subgraph (paper Fig. 10)"}
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
		rec, err := measuredAt(scale, ranks)
		if err != nil {
			return rep, err
		}
		bd := rec.PhaseShare()
		rep.addf("measured at scale %d, %d ranks (time share):", scale, ranks)
		line := "  "
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			line += fmt.Sprintf(" %s=%.1f%%", p, 100*bd[p])
		}
		rep.Lines = append(rep.Lines, line)
	}
	return rep, nil
}

// Fig11 reproduces the time breakdown by communication type, from the
// perfmodel plus one measured volume breakdown at (scale, ranks).
func Fig11(scale, ranks int, measure bool) (Report, error) {
	rep := Report{Title: "Time share by communication type (paper Fig. 11)"}
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
		rec, err := measuredAt(scale, ranks)
		if err != nil {
			return rep, err
		}
		v := rec.CommBreakdown()
		rep.addf("measured volumes at scale %d, %d ranks (bytes, intra+inter supernode):", scale, ranks)
		rep.addf("  alltoallv=%d allgather=%d reduce_scatter=%d",
			v.IntraBytes[0]+v.InterBytes[0], v.IntraBytes[1]+v.InterBytes[1], v.IntraBytes[2]+v.InterBytes[2])
	}
	return rep, nil
}

// Fig12 reproduces the degree-threshold grid search: BFS GTEPS for
// combinations of E and H thresholds (paper Fig. 12 at SCALE 35 on 256
// nodes; here at reduced scale with scale-appropriate threshold values).
func Fig12(scale, ranks, nroots int) (Report, error) {
	rep := Report{Title: "GTEPS vs (E,H) degree thresholds (paper Fig. 12)"}
	g := graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed})
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
			sum, err := bench(g, graph500.Config{Ranks: ranks, Thresholds: partition.Thresholds{E: e, H: h}}, nroots)
			if err != nil {
				return rep, err
			}
			line += fmt.Sprintf(" %10.3f", sum.GTEPS())
			if sum.GTEPS() > bestG {
				bestG, best = sum.GTEPS(), fmt.Sprintf("E=%d H=%d", e, h)
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
	rep := Report{Title: "Partitioned subgraph size balance (paper Fig. 13)"}
	mesh := topology.SquarestMesh(ranks)
	balance := func(scale int) ([]partition.BalanceStats, error) {
		g := graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed})
		p, err := partition.Build(g.NumVertices, g.Edges, mesh, core.DefaultThresholds(scale), 0)
		if err != nil {
			return nil, err
		}
		return p.Balance(), nil
	}
	bal, err := balance(scale)
	if err != nil {
		return rep, err
	}
	rep.addf("%-8s %12s %12s %12s %12s %9s", "comp", "min", "max", "mean", "max/mean", "spread")
	for _, st := range bal {
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
		bal, err := balance(s)
		if err != nil {
			return rep, err
		}
		if st := bal[partition.CompEH2EH]; st.Mean > 0 {
			rep.addf("  scale %2d: %.3f", s, float64(st.Max)/st.Mean)
		}
	}
	return rep, nil
}

// Capacity reproduces the 8x-capacity headline as the memory argument of
// Section 2.3: modeled per-node bytes for the three partitioning schemes at
// SCALE 44 on 103,912 x 96 GiB nodes.
func Capacity() Report {
	rep := Report{Title: "Per-node memory at SCALE 44 (paper Section 2.3 / 8x capacity headline)"}
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
// components, and reachability from the SSSP root, a sampled one.
func Extensions(scale, ranks int) (Report, error) {
	rep := Report{Title: "Beyond the paper: kernel 2 and the Section 8 analytics direction"}
	r, err := graph500.New(graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed}), graph500.Config{Ranks: ranks})
	if err != nil {
		return rep, err
	}
	roots, err := r.SampleRoots(1, seed+1)
	if err != nil {
		return rep, err
	}
	root := roots[0]
	sres, err := r.SSSPValidated(root, 7)
	if err != nil {
		return rep, err
	}
	rep.addf("SSSP (kernel 2): %d rounds, %d relaxations, %v (validated against optimality conditions)",
		sres.Iterations, sres.Relaxations, sres.Time.Round(time.Millisecond))
	pr, err := r.PageRank(0.85, 1e-8, 200)
	if err != nil {
		return rep, err
	}
	rep.addf("PageRank: converged in %d iterations (delta %.1e) in %v", pr.Iterations, pr.Delta, pr.Time.Round(time.Millisecond))
	wcc, err := r.ConnectedComponents()
	if err != nil {
		return rep, err
	}
	rep.addf("connected components: %d components in %d label rounds, %v", wcc.Components, wcc.Iterations, wcc.Time.Round(time.Millisecond))
	reach, err := r.RunValidated(root)
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

// Fig14 times Figure 14's operation, bucketing 64-bit records by their low
// 8 bits, with psort.RadixSortUint64 at 1 and 6 workers. The keys vary only
// in their low byte, so after its scan for varying digits the sort is one
// histogram pass and one stable 256-bucket scatter. The SW26010-Pro is not
// modeled: OCS-RMA pays through
// per-CPE scratchpads and RMA puts between them, which this host lacks, so
// only the paper's chip figures are printed beside the host's.
func Fig14(totalMB int) Report {
	rep := Report{Title: "Bucketing throughput (paper Fig. 14; host only)"}
	keys := make([]uint64, totalMB<<20/8)
	rng := rmatRand(99)
	for i := range keys {
		keys[i] = rng() & 0xFF
	}
	work := make([]uint64, len(keys))
	rep.addf("%-10s %10s   (%d MB, best of 3, GOMAXPROCS %d)", "workers", "host GB/s", totalMB, runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 6} {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			copy(work, keys)
			start := time.Now()
			psort.RadixSortUint64(work, workers)
			best = math.Min(best, time.Since(start).Seconds())
		}
		rep.addf("%-10s %10.3f", fmt.Sprintf("workers=%d", workers), float64(len(keys)*8)/best/1e9)
	}
	rep.addf("paper (SW26010-Pro): MPE 0.0406, 1 CG 12.5, 6 CGs 58.6 GB/s (47.0%% of peak memory bandwidth)")
	rep.addf("the chip is not modeled: OCS-RMA pays through CPE scratchpads and RMA, which this host lacks")
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

// Fig15 reproduces the optimization ablation, each row adding one design to
// the one above: (a) vanilla whole-iteration direction optimization, (b)
// + sub-iteration direction optimization, (c) + the paper's L2L forwarding
// through the intersection rank of the source column and destination row
// (Options.Hierarchical). Time is broken into EH2EH/other push/pull, beside
// one BFS's L2L collective calls and bytes and its edges touched; every row
// runs the same reps sampled roots. Two of the paper's bars are not
// reproduced (DESIGN §1): CG-aware core subgraph segmenting pays through
// per-core-group scratchpads read over RMA, which a commodity host lacks, and
// intra-rank workers (the edge-aware vertex cut and the two-stage
// destination update) lost their row here and were removed.
func Fig15(scale, ranks, reps int) (Report, error) {
	rep := Report{Title: "Ablation: baseline / +sub-iteration / +forwarding (paper Fig. 15)"}
	g := graph500.Generate(graph500.GenConfig{Scale: scale, Seed: seed})
	sub := graph500.Config{Ranks: ranks, Direction: graph500.SubIterationDirections}
	fwd := sub
	fwd.Hierarchical = true
	configs := []struct {
		name string
		cfg  graph500.Config
	}{
		{"baseline", graph500.Config{Ranks: ranks, Direction: graph500.WholeIterationDirection}},
		{"+sub-iter", sub},
		{"+forwarding", fwd},
	}
	rep.addf("%-12s %11s %11s %11s %11s %10s %10s %12s %14s", "config", "EH2EH pull", "others pull", "EH2EH push", "others push",
		"other", "L2L calls", "L2L bytes", "edges touched")
	for _, cfg := range configs {
		sum, err := bench(g, cfg.cfg, reps)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", cfg.name, err)
		}
		var pullEH, pushEH, pullOther, pushOther, rest time.Duration
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			pull := sum.Recorder.Time[p][stats.DirPull]
			push := sum.Recorder.Time[p][stats.DirPush]
			if p == stats.PhaseEH2EH {
				pullEH += pull
				pushEH += push
			} else {
				pullOther += pull
				pushOther += push
			}
			rest += sum.Recorder.Time[p][stats.DirNone]
		}
		d := func(t time.Duration) string {
			return fmt.Sprintf("%.2fms", float64(t.Microseconds())/1e3/float64(reps))
		}
		calls, bytes := l2lPerBFS(sum)
		rep.addf("%-12s %11s %11s %11s %11s %10s %10d %12d %14d", cfg.name, d(pullEH), d(pullOther), d(pushEH), d(pushOther), d(rest),
			calls, bytes, sum.Recorder.TotalEdges()/int64(reps))
	}
	rep.addf("paper: sub-iteration shifts E/H push time into cheaper pulls; segmenting speeds EH2EH pull ~9x on silicon (not reproduced here)")
	return rep, nil
}

// All runs every registered exhibit in Registry order at the given sizes.
func All(scale, ranks int, measure bool) ([]Report, error) {
	var out []Report
	for _, x := range Registry {
		rep, err := x.run(scale, ranks, measure)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// ByID runs one registered exhibit by its id (case-insensitive).
func ByID(id string, scale, ranks int, measure bool) (Report, error) {
	var ids []string
	for _, x := range Registry {
		if strings.EqualFold(x.ID, id) {
			return x.run(scale, ranks, measure)
		}
		ids = append(ids, x.ID)
	}
	return Report{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// run regenerates the exhibit and stamps its report with the exhibit's id.
func (x Exhibit) run(scale, ranks int, measure bool) (Report, error) {
	rep, err := x.Run(scale, ranks, measure)
	rep.ID = x.ID
	return rep, err
}
