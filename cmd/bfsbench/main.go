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
//
// The graph, mesh, engine, resilience and socket flags are the shared world
// flags of internal/world (README "World flags"); only the run-selection and
// output flags are declared here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/world"
)

func main() {
	spec := world.Default()
	spec.Scale, spec.Ranks = 16, 16
	spec.GraphFlags(flag.CommandLine)
	spec.EngineFlags(flag.CommandLine)
	spec.SocketFlags(flag.CommandLine)
	spec.JoinFlags(flag.CommandLine)
	var (
		roots     = flag.Int("roots", 16, "number of sampled roots (Graph 500 uses 64)")
		workload  = flag.String("workload", "bfs", "comma-separated workloads to run: bfs, wcc, kcore, sssp")
		kcoreK    = flag.Int64("kcore-k", 2, "peeling threshold for the kcore workload")
		breakdown = flag.Bool("breakdown", true, "print per-subgraph time breakdown (bfs only)")
		official  = flag.Bool("official", false, "print the Graph 500 official statistics block (bfs only)")
		jsonOut   = flag.String("json", "", "write the machine-readable benchmark report (JSON) to this file")
		traceOut  = flag.String("trace", "", "record per-iteration spans and write the merged timeline (JSONL) to this file")
		chromeOut = flag.String("trace-chrome", "", "record spans and write a Chrome trace_event file for chrome://tracing")
	)
	flag.Parse()

	names, err := graph500.ParseWorkloads(*workload)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsbench:", err)
		os.Exit(2)
	}
	group, err := spec.Join(nil)
	if err != nil {
		fatal(err)
	}
	if group != nil {
		defer group.Close()
		if group.Proc() != 0 {
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
			group.Proc(), group.Procs(), spec.RanksPerProc)
	}

	t0 := time.Now()
	g, err := spec.LoadGraph(os.Stdout)
	if err != nil {
		fatal(err)
	}
	genSeconds := time.Since(t0).Seconds()

	cfg, err := spec.Config(group)
	if err != nil {
		fatal(err)
	}
	if cfg.Transport != nil {
		fmt.Printf("fault injection active: %s\n", cfg.Transport)
	}
	if cfg.CheckpointDir != "" {
		fmt.Printf("checkpointing to %s every %d iteration(s)\n", cfg.CheckpointDir, cfg.CheckpointEvery)
	}
	if *traceOut != "" || *chromeOut != "" {
		cfg.Trace = trace.New()
	}

	r, err := graph500.New(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioned in %v: %d E hubs, %d H hubs over %d ranks\n",
		time.Duration(r.Engine.PartitionSeconds*float64(time.Second)).Round(time.Millisecond),
		r.Engine.Part.Hubs.NumE, r.Engine.Part.Hubs.NumH, r.Engine.Opt.Ranks)
	ps := r.Engine.Part.Stats
	fmt.Printf("  setup %.3fs: degrees %.3fs, hubdir %.3fs, distribute %.3fs, assemble %.3fs (counting passes %.3fs), engine %.3fs\n",
		r.Engine.PartitionSeconds+r.Engine.ConstructSeconds,
		ps.DegreesSeconds, ps.HubDirSeconds, ps.DistributeSeconds,
		ps.AssembleSeconds, ps.SortSeconds, r.Engine.ConstructSeconds)
	cfgReport := spec.RunConfig(r)
	cfgReport.Roots = *roots
	cfgReport.Workload = strings.Join(names, ",")

	var entries []report.WorkloadEntry
	var sum *graph500.BenchmarkSummary
	for _, name := range names {
		if name == "bfs" {
			sum = runBFS(r, cfg, *roots, spec.Seed, *breakdown)
			if *official {
				st := r.Official(sum, r.Engine.PartitionSeconds+r.Engine.ConstructSeconds)
				fmt.Printf("\nGraph 500 official statistics:\n%s", st)
			}
			entries = append(entries, sum.WorkloadEntry())
			continue
		}
		t2 := time.Now()
		entry, err := r.BenchWorkload(name, *kcoreK, spec.Seed)
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

	if group != nil {
		ws := group.WireStats()
		fmt.Printf("\nwire transport (process %d of %d):\n", group.Proc(), group.Procs())
		fmt.Printf("  heartbeats:  %d sent, %d received\n", ws.HeartbeatsSent, ws.HeartbeatsRecv)
		fmt.Printf("  reconnects:  %d  (%d frames resent)\n", ws.Reconnects, ws.FramesResent)
		fmt.Printf("  peers lost:  %d\n", ws.PeersLost)
		if ws.AuthRejects > 0 || ws.HandshakeTimeouts > 0 {
			fmt.Printf("  handshakes:  %d auth rejects, %d deadline drops\n",
				ws.AuthRejects, ws.HandshakeTimeouts)
		}
		fmt.Printf("  traffic:     %d bytes sent, %d bytes received\n", ws.BytesSent, ws.BytesRecv)
		if dead := group.DeadProcs(); len(dead) > 0 {
			fmt.Printf("  dead procs:  %v\n", dead)
		}
	}

	if *jsonOut != "" {
		doc := report.Build(cfgReport, sum)
		doc.Workloads, doc.Setup = entries, setupReport(genSeconds, r, cfg.Trace)
		doc.Resilience.Wire = spec.WireResilience(group)
		if err := doc.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote benchmark report to %s\n", *jsonOut)
	}
	writeTrace(cfg.Trace, *traceOut, false)
	writeTrace(cfg.Trace, *chromeOut, true)
}

// runBFS benchmarks BFS on the shared runner and returns the summary that
// feeds the report and the official statistics block.
func runBFS(r *graph500.Runner, cfg graph500.Config, roots int, seed uint64, breakdown bool) *graph500.BenchmarkSummary {
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
		if cfg.Transport != nil {
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

// writeTrace dumps the recorded span timeline to path, as Chrome
// trace_event JSON when chrome is set, else as JSONL; "" skips it. Called
// after the runs complete, when every recording goroutine has exited.
func writeTrace(tr *trace.Tracer, path string, chrome bool) {
	if tr == nil || path == "" {
		return
	}
	if err := tr.WriteFile(path, chrome); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote trace to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsbench:", err)
	os.Exit(1)
}
