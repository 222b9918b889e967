package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sssp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	kcoreK         = 2
	ssspWeightSeed = 7 // fixed: the seed varies the graph, not the weights' stream
)

// analyticsArm runs one round of the three ported kernels on one engine.
type analyticsArm struct {
	in  *inputs
	eng *core.Engine
}

func (a *analyticsArm) do(int) (opOut, error) {
	out := opOut{rec: &stats.Recorder{}}
	// SSSP starts at the highest-degree vertex: from a sampled root its time
	// moved by 40% between seeds (0.36 s to 0.52 s at SCALE 18) with the
	// iteration count unchanged, which no bound could absorb.
	root := a.in.hub
	var results [3]*core.WorkloadResult
	for k, kernel := range []func() (*core.WorkloadResult, error){
		a.eng.RunWCC,
		func() (*core.WorkloadResult, error) { return a.eng.RunKCore(kcoreK) },
		func() (*core.WorkloadResult, error) { return a.eng.RunSSSP(root, ssspWeightSeed, 0) },
	} {
		t0 := time.Now()
		res, err := kernel()
		dt := time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("kernel %d: %w", k, err)
		}
		results[k] = res
		out.parts = append(out.parts, dt)
		out.wall += dt
		out.iters += res.Iterations
		out.rec.Merge(res.Recorder)
	}
	wcc, kcore, sp := results[0], results[1], results[2]
	out.work = 3 * int64(len(a.in.edges))
	out.hash = hashInt64s(wcc.Label) ^ hashBools(kcore.InCore)*3 ^ hashFloat64s(sp.Dist)*5
	out.check = func() error {
		for v, want := range a.in.wccLabels() {
			if wcc.Label[v] != want {
				return fmt.Errorf("wcc: label[%d] = %d, union-find says %d", v, wcc.Label[v], want)
			}
		}
		for v, want := range a.in.kcoreMembers(kcoreK) {
			if kcore.InCore[v] != want {
				return fmt.Errorf("kcore: inCore[%d] = %v, sequential peeling says %v", v, kcore.InCore[v], want)
			}
		}
		return sssp.ValidateResult(a.in.n, a.in.edges, ssspWeightSeed,
			&sssp.Result{Root: root, Dist: sp.Dist, Parent: sp.Parent})
	}
	return out, nil
}

func (a *analyticsArm) wireBytes() uint64 { return 0 }
func (a *analyticsArm) detail(*result)    {}
func (a *analyticsArm) close()            {}

func runAnalytics(e *env) error {
	scale := e.pick(18, 10)
	in, err := makeInputsSpan(e, scale, 1)
	if err != nil {
		return err
	}
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	newArm := func(tr *trace.Tracer, checkpoints bool) (arm, error) {
		opt := meshOptions(scale, mesh, tr)
		if checkpoints {
			dir, err := os.MkdirTemp(e.tmp, "ckpt-")
			if err != nil {
				return nil, err
			}
			opt.CheckpointDir, opt.CheckpointEvery = dir, 1
		}
		eng, err := core.NewEngine(in.n, in.edges, opt)
		if err != nil {
			return nil, err
		}
		return &analyticsArm{in: in, eng: eng}, nil
	}
	cl := &closedLoop{
		in: in, ops: 1,
		p50As: "round_ms_p50", p95As: "round_ms_p95", rateAs: "kernel_edges_per_s",
		partNames: []string{"wcc", "kcore", "sssp"},
		setup:     func(tr *trace.Tracer) (arm, error) { return newArm(tr, true) },
	}
	if err := cl.run(e); err != nil || !e.cfg.trace {
		return err
	}

	// The same kernels with the checkpoint writer off: what capture and
	// commit cost the round, end to end.
	off, err := newArm(nil, false)
	if err != nil {
		return err
	}
	var rounds []float64
	deadline := time.Now().Add(time.Duration(e.cfg.seconds / 4 * float64(time.Second)))
	for i := 0; i < 10 && (i < 2 || time.Now().Before(deadline)); i++ {
		o, err := off.do(0)
		if err != nil {
			return err
		}
		if i > 0 { // the first round warms up
			rounds = append(rounds, o.wall.Seconds()*1e3)
		}
	}
	r := e.res
	r.detail("round_ms_p50.checkpoint_off", median(rounds), "ms", len(rounds))
	for _, m := range r.Detail {
		if m.Name == "round_ms_p50.untraced" {
			r.detail("checkpoint.overhead_share", ratio(m.Value-median(rounds), median(rounds)), "fraction", len(rounds))
		}
	}
	return nil
}
