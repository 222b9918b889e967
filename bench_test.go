// Benchmarks regenerating every table and figure in the paper's evaluation
// section (Section 6). Each BenchmarkTable1_*/BenchmarkFigN_* target measures
// the workload behind the corresponding exhibit; `go test -bench . -benchmem`
// prints the series, and cmd/experiments renders the full formatted rows.
//
// Absolute numbers come from this machine's Go runtime, not the 40M-core
// New Sunway; EXPERIMENTS.md tabulates the shape comparison (who wins, by
// what factor, where crossovers fall) against the paper's reported values.
package graph500

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/sunway"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	benchScale = 16
	benchRanks = 16
)

func benchGraph(b *testing.B, scale int) (int64, []rmat.Edge) {
	b.Helper()
	cfg := rmat.Config{Scale: scale, Seed: 42}
	return cfg.NumVertices(), rmat.Generate(cfg)
}

func benchEngine(b *testing.B, n int64, edges []rmat.Edge, opt core.Options) *core.Engine {
	b.Helper()
	eng, err := core.NewEngine(n, edges, opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func pickRoot(eng *core.Engine) int64 {
	for v, d := range eng.Part.Degrees {
		if d > 0 {
			return int64(v)
		}
	}
	return 0
}

func runBFS(b *testing.B, eng *core.Engine, root int64) {
	b.Helper()
	if root < 0 {
		root = pickRoot(eng)
	}
	res, err := eng.Run(root)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(res.TraversedEdges * 8)
	b.ReportMetric(float64(res.TraversedEdges)/res.Time.Seconds()/1e9, "GTEPS")
}

// --- Table 1: partitioning methods ------------------------------------------

func BenchmarkTable1_1DHeavyDelegates(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	th := core.DefaultThresholds(benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Thresholds: partition.Thresholds{E: th.H, H: th.H}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

func BenchmarkTable1_2D(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	th := core.DefaultThresholds(benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Thresholds: partition.Thresholds{E: th.E, H: 1}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

func BenchmarkTable1_DegreeAware15D(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

// --- Figure 2: degree distribution -------------------------------------------

func BenchmarkFig2_DegreeHistogram(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	b.SetBytes(int64(len(edges)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := rmat.DegreeHistogram(rmat.Degrees(n, edges))
		if len(hist) < 8 {
			b.Fatal("degree distribution lost its tail")
		}
	}
}

// --- Figure 5: activation breakdown ------------------------------------------

func BenchmarkFig5_ActivationBreakdown(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace) == 0 {
			b.Fatal("no trace")
		}
	}
}

// --- Figure 9-11: scaling model ----------------------------------------------

func BenchmarkFig9_WeakScaling(b *testing.B) {
	m := perfmodel.DefaultModel()
	var eff float64
	for i := 0; i < b.N; i++ {
		_, eff = m.WeakScaling()
	}
	b.ReportMetric(100*eff, "%parallel-efficiency")
}

func BenchmarkFig10_SubgraphBreakdown(b *testing.B) {
	m := perfmodel.DefaultModel()
	for i := 0; i < b.N; i++ {
		for _, w := range perfmodel.PaperPoints {
			p := m.Project(w)
			if p.SubgraphShare["L2L"] <= 0 {
				b.Fatal("missing L2L share")
			}
		}
	}
}

func BenchmarkFig11_CommBreakdown(b *testing.B) {
	m := perfmodel.DefaultModel()
	for i := 0; i < b.N; i++ {
		for _, w := range perfmodel.PaperPoints {
			p := m.Project(w)
			if p.CommShare["compute"] <= 0 {
				b.Fatal("missing compute share")
			}
		}
	}
}

// Measured weak-scaling companion to Figure 9: same graph-per-rank workload
// at increasing rank counts.
func BenchmarkFig9_MeasuredWeakScaling(b *testing.B) {
	for _, pt := range []struct{ scale, ranks int }{{14, 1}, {15, 2}, {16, 4}, {17, 8}} {
		b.Run(fmt.Sprintf("scale%d_ranks%d", pt.scale, pt.ranks), func(b *testing.B) {
			n, edges := benchGraph(b, pt.scale)
			eng := benchEngine(b, n, edges, core.Options{Ranks: pt.ranks})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBFS(b, eng, -1)
			}
		})
	}
}

// --- Figure 12: threshold grid ------------------------------------------------

func BenchmarkFig12_ThresholdGrid(b *testing.B) {
	n, edges := benchGraph(b, 14)
	base := core.DefaultThresholds(14)
	for _, th := range []partition.Thresholds{
		{E: base.E, H: base.H}, {E: base.E * 4, H: base.H}, {E: base.E, H: base.H * 4}, {E: base.E * 4, H: base.H * 4},
	} {
		b.Run(fmt.Sprintf("E%d_H%d", th.E, th.H), func(b *testing.B) {
			eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Thresholds: th})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBFS(b, eng, -1)
			}
		})
	}
}

// --- Figure 13: partitioning balance -------------------------------------------

func BenchmarkFig13_Balance(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	mesh := topology.SquarestMesh(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := partition.Build(n, edges, mesh, core.DefaultThresholds(benchScale), 0)
		if err != nil {
			b.Fatal(err)
		}
		st := p.Balance()[partition.CompEH2EH]
		if st.Mean > 0 {
			b.ReportMetric(float64(st.Max)/st.Mean, "max/mean")
		}
	}
}

// --- Figure 14: OCS-RMA throughput ---------------------------------------------

func fig14Keys(b *testing.B) []uint64 {
	b.Helper()
	keys := make([]uint64, 1<<22) // 32 MB
	s := uint64(99)
	for i := range keys {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		keys[i] = z ^ (z >> 31)
	}
	return keys
}

func BenchmarkFig14_OCSRMA_MPE(b *testing.B) {
	keys := fig14Keys(b)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sunway.BucketMPE(keys, 256, f)
	}
}

func BenchmarkFig14_OCSRMA_1CG(b *testing.B) {
	keys := fig14Keys(b)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sunway.BucketOCS(keys, 256, f, sunway.OCSConfig{CGs: 1})
	}
}

func BenchmarkFig14_OCSRMA_6CG(b *testing.B) {
	keys := fig14Keys(b)
	f := func(x uint64) int { return int(x & 0xFF) }
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sunway.BucketOCS(keys, 256, f, sunway.OCSConfig{CGs: 6})
	}
}

// --- Figure 15: ablation ----------------------------------------------------------

func BenchmarkFig15_Baseline(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Direction: core.ModeWholeIteration})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

func BenchmarkFig15_SubIteration(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Direction: core.ModeSubIteration})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

func BenchmarkFig15_SubIterationSegmented(b *testing.B) {
	n, edges := benchGraph(b, benchScale)
	eng := benchEngine(b, n, edges, core.Options{Ranks: benchRanks, Direction: core.ModeSubIteration, Segmented: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBFS(b, eng, -1)
	}
}

// Figure 15's EH2EH pull contrast in isolation: one rank holding the whole
// core subgraph, pulled with and without segmenting. This is where the
// cache-residency effect shows without per-rank scheduling noise.
func BenchmarkFig15_EHPullKernel(b *testing.B) {
	n, edges := benchGraph(b, 18)
	for _, segmented := range []bool{false, true} {
		name := "direct"
		if segmented {
			name = "segmented"
		}
		b.Run(name, func(b *testing.B) {
			eng := benchEngine(b, n, edges, core.Options{Ranks: 1,
				Direction: core.ModePullOnly, Segmented: segmented})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBFS(b, eng, -1)
			}
		})
	}
}

// End-to-end experiment regeneration (what cmd/experiments prints).
func BenchmarkExperimentTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(13, 4, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions beyond the paper's exhibits -----------------------------------

// BenchmarkExtension_SSSP measures the Graph 500 second kernel on the 1.5D
// partitioning (not a paper figure; Section 8 names SSSP as a beneficiary).
func BenchmarkExtension_SSSP(b *testing.B) {
	n, edges := benchGraph(b, 14)
	eng := benchEngine(b, n, edges, core.Options{Ranks: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSSSP(0, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_PageRank measures PageRank on the core driver.
func BenchmarkExtension_PageRank(b *testing.B) {
	n, edges := benchGraph(b, 14)
	eng := benchEngine(b, n, edges, core.Options{Ranks: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunPageRank(0.85, 1e-6, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_VanillaBaseline measures the no-delegation 1D BFS.
func BenchmarkExtension_VanillaBaseline(b *testing.B) {
	n, edges := benchGraph(b, 14)
	e, err := baseline.New(n, edges, baseline.Options{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MessagesSent), "messages")
	}
}

// BenchmarkExtension_DelayedVsImmediateReduction measures the Section 5
// delayed-reduction saving as reduce-phase bytes.
func BenchmarkExtension_DelayedVsImmediateReduction(b *testing.B) {
	n, edges := benchGraph(b, 14)
	for _, immediate := range []bool{false, true} {
		name := "delayed"
		if immediate {
			name = "immediate"
		}
		b.Run(name, func(b *testing.B) {
			eng := benchEngine(b, n, edges, core.Options{Ranks: 4, ImmediateParentReduction: immediate})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Recorder.Volumes[stats.PhaseReduce].TotalBytes()), "reduce-bytes")
			}
		})
	}
}

// --- Design-choice ablations ---------------------------------------------------

// BenchmarkAblation_L2LForwarding contrasts direct global alltoallv with the
// paper's intersection-rank forwarding, reporting moved bytes.
func BenchmarkAblation_L2LForwarding(b *testing.B) {
	n, edges := benchGraph(b, 15)
	for _, hier := range []bool{false, true} {
		name := "direct"
		if hier {
			name = "forwarded"
		}
		b.Run(name, func(b *testing.B) {
			eng := benchEngine(b, n, edges, core.Options{Ranks: 16, Hierarchical: hier})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(pickRoot(eng))
				if err != nil {
					b.Fatal(err)
				}
				v := res.Recorder.Volumes[stats.PhaseL2L]
				b.ReportMetric(float64(v.TotalBytes()), "L2L-bytes")
			}
		})
	}
}

// BenchmarkCheckpointEvery1Overhead measures what the async double-buffered
// checkpoint writer costs the traversal at the most aggressive setting
// (-checkpoint-every=1: a delta capture after every BFS iteration), against
// an identical engine with checkpointing off. Prints the per-iteration
// overhead in ns and as a percentage of the fault-free iteration time.
func BenchmarkCheckpointEvery1Overhead(b *testing.B) {
	n, edges := benchGraph(b, 14)
	plain := benchEngine(b, n, edges, core.Options{Ranks: 4})
	root := pickRoot(plain)
	ck := benchEngine(b, n, edges, core.Options{Ranks: 4, CheckpointDir: b.TempDir(), CheckpointEvery: 1})
	// Warm both paths (graph tier write, partitioning) outside the timing.
	if _, err := plain.Run(root); err != nil {
		b.Fatal(err)
	}
	if _, err := ck.Run(root); err != nil {
		b.Fatal(err)
	}
	var plainNs, ckNs, iters, segs, bytes, dropped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plain.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		plainNs += res.Time.Nanoseconds()
		ckRes, err := ck.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		if ckRes.Recovery.CheckpointSegments == 0 {
			b.Fatal("checkpointed run committed no segments")
		}
		ckNs += ckRes.Time.Nanoseconds()
		iters += int64(ckRes.Iterations)
		segs += ckRes.Recovery.CheckpointSegments
		bytes += ckRes.Recovery.CheckpointBytes
		dropped += ckRes.Recovery.CheckpointDropped
	}
	b.StopTimer()
	perIter := float64(ckNs-plainNs) / float64(iters)
	pct := 100 * float64(ckNs-plainNs) / float64(plainNs)
	b.ReportMetric(perIter, "ns-overhead/iter")
	b.ReportMetric(pct, "%overhead")
	b.Logf("checkpoint-every=1 over %d runs: plain=%v checkpointed=%v -> %.0f ns/iter (%.2f%%) overhead; %d segments, %d bytes, %d captures dropped",
		b.N, time.Duration(plainNs), time.Duration(ckNs), perIter, pct, segs, bytes, dropped)
}

// BenchmarkAblation_RankWorkers sweeps intra-rank parallelism (edge-aware
// vertex cut + two-stage apply paths).
func BenchmarkAblation_RankWorkers(b *testing.B) {
	n, edges := benchGraph(b, 15)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			eng := benchEngine(b, n, edges, core.Options{Ranks: 4, RankWorkers: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBFS(b, eng, -1)
			}
		})
	}
}

// BenchmarkTraceOverhead measures what the span recorder costs the traversal:
// tracing off (the nil-check fast path every instrumented hook pays) against
// tracing on (one span per kernel/sync/collective/decision on every rank).
// The acceptance bar for the disabled path is <2% against the seed engine;
// the on path shows the full recording cost. Reset between runs keeps the
// tracer's span memory bounded.
func BenchmarkTraceOverhead(b *testing.B) {
	n, edges := benchGraph(b, 12)
	off := benchEngine(b, n, edges, core.Options{Ranks: 4})
	root := pickRoot(off)
	tr := trace.New()
	on := benchEngine(b, n, edges, core.Options{Ranks: 4, Trace: tr})
	if _, err := off.Run(root); err != nil {
		b.Fatal(err)
	}
	if _, err := on.Run(root); err != nil {
		b.Fatal(err)
	}
	if len(tr.Spans()) == 0 {
		b.Fatal("traced run recorded no spans")
	}
	tr.Reset()
	var offNs, onNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := off.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		offNs += res.Time.Nanoseconds()
		onRes, err := on.Run(root)
		if err != nil {
			b.Fatal(err)
		}
		onNs += onRes.Time.Nanoseconds()
		tr.Reset()
	}
	b.StopTimer()
	pct := 100 * float64(onNs-offNs) / float64(offNs)
	b.ReportMetric(pct, "%overhead-on")
	b.Logf("tracing over %d runs: off=%v on=%v -> %.2f%% recording overhead",
		b.N, time.Duration(offNs), time.Duration(onNs), pct)
}
