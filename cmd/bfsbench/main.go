// Command bfsbench is the Graph 500 style end-to-end runner: generate (or
// load) an R-MAT graph, partition it with 3-level degree-aware 1.5D
// partitioning over the requested rank mesh, run the selected workloads (BFS
// from sampled roots, plus WCC, k-core and SSSP on the same fast path),
// validate the results, and report harmonic-mean GTEPS plus the time
// breakdowns of the paper's evaluation.
//
// Usage:
//
//	bfsbench -scale 18 -ranks 16 -roots 16
//	bfsbench -scale 20 -ranks 64 -ethreshold 4096 -hthreshold 256 -segmented
//	bfsbench -input edges.bin -informat bin -ranks 16
//	bfsbench -scale 16 -workload bfs,wcc,kcore,sssp -json bench.json
//	bfsbench -scale 16 -workload kcore -kcore-k 4
//	bfsbench -scale 16 -faults "seed=42,delay=0.01,fail=0.001" -deadline 5ms
//	bfsbench -scale 14 -ranks 4 -json bench.json -trace spans.jsonl -trace-chrome trace.json
//
// Multi-process mode (one process per supernode, framed socket
// collectives between them — see DESIGN.md §12): start one bfsbench per
// process, identical flags except -listen, with -join listing every
// process's address in process order:
//
//	bfsbench -scale 16 -ranks 4 -ranks-per-proc 2 -checkpoint-dir /shared/ckpt \
//	    -listen unix:/tmp/g0.sock -join unix:/tmp/g0.sock,unix:/tmp/g1.sock
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/edgeio"
	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "graph SCALE: 2^scale vertices, 16*2^scale edges")
		input      = flag.String("input", "", "load edge list from file instead of generating")
		informat   = flag.String("informat", "bin", "input format: text or bin")
		ranks      = flag.Int("ranks", 16, "simulated node count (R x C mesh derived)")
		rows       = flag.Int("rows", 0, "mesh rows (0 = squarest)")
		cols       = flag.Int("cols", 0, "mesh cols (0 = squarest)")
		roots      = flag.Int("roots", 16, "number of sampled roots (Graph 500 uses 64)")
		batchRoots = flag.Int("batch-roots", 0, "offline batched-BFS mode: run ONE multi-source sweep over this many roots and A/B its collective calls against solo runs (bfs only)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		workload   = flag.String("workload", "bfs", "comma-separated workloads to run: bfs, wcc, kcore, sssp")
		kcoreK     = flag.Int64("kcore-k", 2, "peeling threshold for the kcore workload")
		eThresh    = flag.Int64("ethreshold", 0, "E degree threshold (0 = scale default)")
		hThresh    = flag.Int64("hthreshold", 0, "H degree threshold (0 = scale default)")
		segmented  = flag.Bool("segmented", false, "enable CG-aware core subgraph segmenting")
		hier       = flag.Bool("hierarchical", false, "forward L2L messages via mesh intersections")
		sparse     = flag.String("sparse", "auto", "sparse tail collective policy: auto, off or always")
		workers    = flag.Int("rankworkers", 1, "intra-rank kernel workers (edge-aware vertex cut)")
		breakdown  = flag.Bool("breakdown", true, "print per-subgraph time breakdown (bfs only)")
		official   = flag.Bool("official", false, "print the Graph 500 official statistics block (bfs only)")
		faults     = flag.String("faults", "", "fault-injection plan, e.g. \"seed=42,delay=0.01,fail=0.001\" or \"kill@rank=3,iter=2\" (bfs only)")
		deadline   = flag.Duration("deadline", 0, "per-collective deadline under fault injection (0 = off)")
		retries    = flag.Int("maxretries", 0, "max consecutive retries of a failed iteration (0 = default 4)")
		ckptDir    = flag.String("checkpoint-dir", "", "durable checkpoint store directory (empty = checkpointing off)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "iterations between traversal checkpoints")
		recovery   = flag.String("recovery", "shrink", "world rebuild after a fail-stop: shrink or restore")
		rpp        = flag.Int("ranks-per-proc", 0, "hybrid mode: ranks this process hosts in a -join world (0 = ranks/processes)")
		listen     = flag.String("listen", "", "this process's socket address, unix:PATH or tcp:HOST:PORT (requires -join)")
		join       = flag.String("join", "", "comma-separated addresses of every process in the world, in process order (must contain -listen)")
		secret     = flag.String("secret", "", "shared world secret authenticating the socket handshake (or BFS_WORLD_SECRET; empty = unauthenticated)")
		jsonOut    = flag.String("json", "", "write the machine-readable benchmark report (JSON) to this file (bfs only)")
		traceOut   = flag.String("trace", "", "record per-iteration spans and write the merged timeline (JSONL) to this file (bfs only)")
		chromeOut  = flag.String("trace-chrome", "", "record spans and write a Chrome trace_event file for chrome://tracing (bfs only)")
	)
	flag.Parse()

	if *secret == "" {
		*secret = os.Getenv("BFS_WORLD_SECRET")
	}
	dist, err := joinWorld(*listen, *join, *ranks, *rpp, *secret)
	if err != nil {
		fatal(err)
	}
	if dist != nil {
		defer dist.group.Close()
		if dist.group.Proc() != 0 {
			// Follower processes run the identical SPMD schedule but stay
			// quiet: the leader owns the human output and every artifact.
			null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				fatal(err)
			}
			os.Stdout = null
			*jsonOut, *traceOut, *chromeOut = "", "", ""
		}
		fmt.Printf("joined socket world: process %d of %d, %d ranks each\n",
			dist.group.Proc(), dist.procs, dist.rpp)
	}

	var g graph500.Graph
	t0 := time.Now()
	if *input != "" {
		format, err := edgeio.ParseFormat(*informat)
		if err != nil {
			fatal(err)
		}
		n, edges, err := edgeio.ReadFile(*input, format)
		if err != nil {
			fatal(err)
		}
		g = graph500.FromEdges(n, edges)
		fmt.Printf("loaded %s: %d vertices, %d edges in %v\n",
			*input, g.NumVertices, len(g.Edges), time.Since(t0).Round(time.Millisecond))
	} else {
		fmt.Printf("generating SCALE %d graph (%d vertices, %d edges)...\n",
			*scale, int64(1)<<uint(*scale), int64(16)<<uint(*scale))
		g = graph500.Generate(graph500.GenConfig{Scale: *scale, Seed: *seed})
		fmt.Printf("  generated in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	genSeconds := time.Since(t0).Seconds()

	cfg := graph500.Config{
		Ranks:        *ranks,
		Segmented:    *segmented,
		Hierarchical: *hier,
		RankWorkers:  *workers,
	}
	if *rows > 0 && *cols > 0 {
		cfg.Mesh = graph500.Mesh{Rows: *rows, Cols: *cols}
	}
	switch *sparse {
	case "auto":
		cfg.SparseTail = graph500.SparseAuto
	case "off":
		cfg.SparseTail = graph500.SparseOff
	case "always":
		cfg.SparseTail = graph500.SparseAlways
	default:
		fmt.Fprintf(os.Stderr, "unknown -sparse %q (want auto, off or always)\n", *sparse)
		os.Exit(2)
	}
	if *eThresh > 0 && *hThresh > 0 {
		cfg.Thresholds = graph500.Thresholds{E: *eThresh, H: *hThresh}
	}
	if *faults != "" {
		plan, err := faultinject.Parse(*faults)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = plan
		cfg.CollectiveDeadline = *deadline
		cfg.MaxRetries = *retries
		fmt.Printf("fault injection active: %s\n", plan)
	}
	if *ckptDir != "" {
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointEvery = *ckptEvery
		fmt.Printf("checkpointing to %s every %d iteration(s)\n", *ckptDir, *ckptEvery)
	}
	switch *recovery {
	case "shrink":
		cfg.Recovery = graph500.ShrinkRecovery
	case "restore":
		cfg.Recovery = graph500.RestoreRecovery
	default:
		fmt.Fprintf(os.Stderr, "unknown -recovery %q (want shrink or restore)\n", *recovery)
		os.Exit(2)
	}
	if dist != nil {
		cfg.Dist = dist.cfg
	}

	out := outputs{json: *jsonOut, trace: *traceOut, chrome: *chromeOut}
	if out.trace != "" || out.chrome != "" {
		cfg.Trace = trace.New()
	}
	out.cfgReport = report.RunConfig{
		Scale:        *scale,
		EdgeFactor:   16,
		NumVertices:  g.NumVertices,
		NumEdges:     int64(len(g.Edges)),
		Roots:        *roots,
		Seed:         *seed,
		Direction:    "sub-iteration",
		Segmented:    *segmented,
		Hierarchical: *hier,
		RankWorkers:  *workers,
		Faults:       *faults,
		Checkpoints:  *ckptDir != "",
	}
	if *sparse != "auto" {
		// Only a non-default policy marks the report: keeps config-equality
		// checks against pre-sparse baselines working.
		out.cfgReport.Sparse = *sparse
	}
	if *input != "" {
		out.cfgReport.Scale, out.cfgReport.EdgeFactor = 0, 0
	}

	names, err := graph500.ParseWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	out.cfgReport.Workload = strings.Join(names, ",")

	r, err := graph500.New(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioned in %v: %d E hubs, %d H hubs over %d ranks\n",
		time.Duration(r.Engine.PartitionSeconds*float64(time.Second)).Round(time.Millisecond),
		r.Engine.Part.Hubs.NumE, r.Engine.Part.Hubs.NumH, r.Engine.Opt.Ranks)
	ps := r.Engine.Part.Stats
	fmt.Printf("  setup %.3fs: degrees %.3fs, hubdir %.3fs, distribute %.3fs, assemble %.3fs (sort %.3fs), engine %.3fs\n",
		r.Engine.PartitionSeconds+r.Engine.ConstructSeconds,
		ps.DegreesSeconds, ps.HubDirSeconds, ps.DistributeSeconds,
		ps.AssembleSeconds, ps.SortSeconds, r.Engine.ConstructSeconds)
	out.cfgReport.Ranks = r.Engine.Opt.Ranks
	out.cfgReport.MeshRows = r.Engine.Opt.Mesh.Rows
	out.cfgReport.MeshCols = r.Engine.Opt.Mesh.Cols

	if *batchRoots > 0 {
		if dist != nil {
			fatal(fmt.Errorf("-batch-roots runs the in-process backend only"))
		}
		runBatchBench(r, *batchRoots, *seed, out)
		writeTraces(cfg.Trace, out)
		return
	}

	var entries []report.WorkloadEntry
	var sum *graph500.BenchmarkSummary
	for _, name := range names {
		if name == "bfs" {
			sum = runBFS(r, cfg, *roots, *seed, *breakdown, *official, time.Since(t0))
			if sum == nil { // -official printed its block and owns the output
				return
			}
			entries = append(entries, sum.WorkloadEntry())
			continue
		}
		t2 := time.Now()
		entry, err := r.BenchWorkload(name, *kcoreK, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("\n%s on the fast path (%v):\n", name, time.Since(t2).Round(time.Millisecond))
		switch name {
		case "wcc":
			fmt.Printf("  %d components in %d label rounds\n", entry.Components, entry.Iterations)
		case "kcore":
			fmt.Printf("  %d-core holds %d vertices after %d peel rounds\n", entry.K, entry.CoreSize, entry.Iterations)
		case "sssp":
			fmt.Printf("  root %d: %d relaxations over %d rounds (validated against optimality conditions)\n",
				entry.Root, entry.Relaxations, entry.Iterations)
		}
		fmt.Printf("  %.4f GTEPS (edges touched / second), %d collective bytes\n", entry.GTEPS, entry.CommBytes)
		entries = append(entries, entry)
	}

	if dist != nil {
		ws := dist.group.WireStats()
		fmt.Printf("\nwire transport (process %d of %d):\n", dist.group.Proc(), dist.procs)
		fmt.Printf("  heartbeats:  %d sent, %d received\n", ws.HeartbeatsSent, ws.HeartbeatsRecv)
		fmt.Printf("  reconnects:  %d  (%d frames resent)\n", ws.Reconnects, ws.FramesResent)
		fmt.Printf("  peers lost:  %d\n", ws.PeersLost)
		if ws.AuthRejects > 0 || ws.HandshakeTimeouts > 0 {
			fmt.Printf("  handshakes:  %d auth rejects, %d deadline drops\n",
				ws.AuthRejects, ws.HandshakeTimeouts)
		}
		fmt.Printf("  traffic:     %d bytes sent, %d bytes received\n", ws.BytesSent, ws.BytesRecv)
		if dead := dist.group.DeadProcs(); len(dead) > 0 {
			fmt.Printf("  dead procs:  %v\n", dead)
		}
	}

	if out.json != "" {
		in := report.Inputs{Config: out.cfgReport, Workloads: entries,
			Setup: setupReport(genSeconds, r, cfg.Trace)}
		if dist != nil {
			ws := dist.group.WireStats()
			in.Wire = &report.WireResilience{
				Procs:             dist.procs,
				RanksPerProc:      dist.rpp,
				HeartbeatsSent:    ws.HeartbeatsSent,
				HeartbeatsRecv:    ws.HeartbeatsRecv,
				Reconnects:        ws.Reconnects,
				PeersLost:         ws.PeersLost,
				FramesResent:      ws.FramesResent,
				BytesSent:         ws.BytesSent,
				BytesRecv:         ws.BytesRecv,
				AuthRejects:       ws.AuthRejects,
				HandshakeTimeouts: ws.HandshakeTimeouts,
			}
		}
		if sum != nil {
			in.HarmonicTEPS = sum.HarmonicTEPS
			in.MeanTEPS = sum.MeanTEPS
			in.MinTEPS = sum.MinTEPS
			in.MaxTEPS = sum.MaxTEPS
			in.MeanSeconds = sum.MeanSeconds
			in.Traversed = sum.TotalTraversed
			in.Iterations = sum.Iterations
			in.Recorder = &sum.Recorder
			in.Directions = sum.Directions
			in.Faults = sum.Faults
			in.Retries = sum.Retries
			in.RecoveryWall = sum.RecoveryTime
			in.Recovery = sum.Recovery
		}
		if err := report.Build(in).WriteFile(out.json); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote benchmark report to %s\n", out.json)
	}
	writeTraces(cfg.Trace, out)
}

// distWorld is the socket world this process joined: the comm group plus
// the hybrid split it was derived from.
type distWorld struct {
	group *comm.Group
	cfg   *comm.DistConfig
	procs int
	rpp   int
}

// joinWorld binds this process into the multi-process socket world named by
// -listen/-join, or returns nil when both are empty (the in-process
// backend). Every process of the world runs the identical bfsbench command
// line except for -listen; the process index is the position of -listen in
// the -join list, and process p hosts ranks [p*rpp, (p+1)*rpp).
func joinWorld(listen, join string, ranks, rpp int, secret string) (*distWorld, error) {
	if listen == "" && join == "" {
		if rpp != 0 {
			return nil, fmt.Errorf("-ranks-per-proc needs a socket world (-listen and -join)")
		}
		return nil, nil
	}
	if listen == "" || join == "" {
		return nil, fmt.Errorf("-listen and -join must be set together")
	}
	addrs := strings.Split(join, ",")
	proc := -1
	for i, a := range addrs {
		if a == listen {
			proc = i
			break
		}
	}
	if proc < 0 {
		return nil, fmt.Errorf("-listen %s does not appear in -join %s", listen, join)
	}
	procs := len(addrs)
	if rpp == 0 {
		if ranks%procs != 0 {
			return nil, fmt.Errorf("%d ranks do not divide over %d processes; set -ranks-per-proc", ranks, procs)
		}
		rpp = ranks / procs
	}
	if (ranks+rpp-1)/rpp != procs {
		return nil, fmt.Errorf("%d ranks at %d per process need %d processes, -join names %d",
			ranks, rpp, (ranks+rpp-1)/rpp, procs)
	}
	g, err := comm.NewGroup(wire.Config{Proc: proc, Addrs: addrs, Secret: secret})
	if err != nil {
		return nil, err
	}
	return &distWorld{
		group: g,
		cfg:   &comm.DistConfig{Group: g, ProcOf: comm.ContiguousProcOf(ranks, rpp)},
		procs: procs,
		rpp:   rpp,
	}, nil
}

// outputs collects the machine-readable emission targets.
type outputs struct {
	json      string
	trace     string
	chrome    string
	cfgReport report.RunConfig
}

// runBFS benchmarks BFS on the shared runner and returns the summary for the
// report, or nil when -official printed the spec's statistics block instead.
func runBFS(r *graph500.Runner, cfg graph500.Config, roots int, seed uint64, breakdown, official bool, setupTime time.Duration) *graph500.BenchmarkSummary {
	if official {
		st, err := r.OfficialRun(roots, seed+1, setupTime)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st)
		return nil
	}

	sum, err := r.Benchmark(roots, seed+1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d validated BFS runs:\n", len(sum.Roots))
	fmt.Printf("  harmonic mean: %10.4f GTEPS   (the Graph 500 statistic)\n", sum.GTEPS())
	fmt.Printf("  mean:          %10.4f GTEPS\n", sum.MeanTEPS/1e9)
	fmt.Printf("  min/max:       %10.4f / %.4f GTEPS\n", sum.MinTEPS/1e9, sum.MaxTEPS/1e9)
	fmt.Printf("  mean time:     %10.2f ms per traversal\n", sum.MeanSeconds*1e3)

	if breakdown {
		res, err := r.Run(sum.Roots[0])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntime breakdown (root %d, %d iterations):\n", sum.Roots[0], res.Iterations)
		share := res.Recorder.PhaseShare()
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			fmt.Printf("  %-7s %6.2f%%  (%d edge touches)\n", p, 100*share[p], res.Recorder.EdgesTouched[p])
		}
		if cfg.Faults != nil {
			fmt.Printf("\nresilience (all %d runs):\n", len(sum.Roots))
			fmt.Printf("  injected faults:  %d  (%d delays, %d stalls, %d corruptions, %d failures, %d kills)\n",
				sum.Faults.Injected(), sum.Faults.Delays, sum.Faults.Stalls,
				sum.Faults.Corruptions, sum.Faults.Failures, sum.Faults.Kills)
			fmt.Printf("  collective errors:%d across ranks\n", sum.Faults.Errors)
			fmt.Printf("  iteration retries:%d\n", sum.Retries)
		}
		if rec := sum.Recovery; cfg.CheckpointDir != "" || rec.Epochs > 0 {
			fmt.Printf("\nfail-stop recovery (all %d runs, mode %v):\n", len(sum.Roots), cfg.Recovery)
			fmt.Printf("  world epochs:     %d  (%d ranks lost)\n", rec.Epochs, rec.RanksLost)
			fmt.Printf("  replayed:         %d iterations, %d bytes restored (last resume@%d)\n",
				rec.IterationsReplayed, rec.BytesRestored, rec.LastResumeIter)
			fmt.Printf("  recovery time:    %v (rebuild + replay)\n", rec.RecoveryTime.Round(time.Microsecond))
			fmt.Printf("  checkpoints:      %d segments, %d bytes committed (%d dropped, %d errors)\n",
				rec.CheckpointSegments, rec.CheckpointBytes, rec.CheckpointDropped, rec.CheckpointErrors)
		}
	}
	return sum
}

// setupReport assembles the report's setup block: the wall time paid before
// the first traversal edge, split into graph generation (harness cost, not
// gated), partitioning with the partitioner's per-stage and sort breakdown,
// and engine construction. The gated Seconds is partition + engine.
func setupReport(genSeconds float64, r *graph500.Runner, tr *trace.Tracer) *report.SetupReport {
	st := r.Engine.Part.Stats
	s := &report.SetupReport{
		Seconds:           r.Engine.PartitionSeconds + r.Engine.ConstructSeconds,
		GenerateSeconds:   genSeconds,
		PartitionSeconds:  r.Engine.PartitionSeconds,
		DegreesSeconds:    st.DegreesSeconds,
		HubDirSeconds:     st.HubDirSeconds,
		DistributeSeconds: st.DistributeSeconds,
		AssembleSeconds:   st.AssembleSeconds,
		SortSeconds:       st.SortSeconds,
		EngineSeconds:     r.Engine.ConstructSeconds,
	}
	if tr != nil {
		s.FirstKernelGapSeconds = firstKernelGap(tr.Spans())
	}
	return s
}

// firstKernelGap measures the first run's bootstrap cost from the trace: the
// gap between its run_start event and the first kernel span that follows.
func firstKernelGap(spans []trace.Span) float64 {
	runStart := int64(-1)
	for _, sp := range spans {
		if runStart < 0 {
			if sp.Kind == trace.KindEvent && sp.Name == "run_start" {
				runStart = sp.Start
			}
			continue
		}
		if sp.Kind == trace.KindKernel && sp.Start >= runStart {
			return float64(sp.Start-runStart) / 1e9
		}
	}
	return 0
}

// writeTraces dumps the recorded span timeline in the requested formats.
// Called after the runs complete, when every recording goroutine has exited.
func writeTraces(tr *trace.Tracer, out outputs) {
	if tr == nil {
		return
	}
	write := func(path string, emit func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := emit(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", path)
	}
	if out.trace != "" {
		write(out.trace, func(f *os.File) error { return tr.WriteJSONL(f) })
	}
	if out.chrome != "" {
		write(out.chrome, func(f *os.File) error { return tr.WriteChrome(f) })
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsbench:", err)
	os.Exit(1)
}
