// Command bfsrun materializes a whole multi-process BFS world from one
// command line. Where bfsbench in socket mode needs one hand-started process
// per world member (DESIGN.md §12), bfsrun is the cluster supervisor: it
// spawns N rank-hosting workers plus a pool of spares, wires them into an
// authenticated socket world, and babysits them — restarting crashes with
// capped exponential backoff, breaking out of crash loops with a typed
// post-mortem, re-admitting lost capacity through the spare + checkpoint
// restore path, and draining the fleet gracefully on SIGTERM.
//
//	bfsrun -procs 3 -spares 2 -scale 16 -roots 4 -json run.json
//	bfsrun -procs 3 -scale 16 -faults "sigkill@proc=1,iter=2"
//
// The graph, mesh, engine, resilience and socket flags are the shared world
// flags of internal/world (README "World flags"); an empty -checkpoint-dir
// here means a fresh temp dir, because a supervised world always checkpoints.
//
// The worker side is this same binary re-executed with its whole world spec
// as one JSON value in BFSRUN_SPEC: each worker joins the wire world with the
// per-run shared secret, runs the SPMD BFS schedule, and reports liveness
// over the supervise control pipe. A worker SIGKILLed by the fault plan is
// replaced by a spare that replays the shared checkpoint store; the killed
// slot's restarted process learns from the sealed handshake verdict — or,
// when no live peer is left to deliver one, from a peer-dead window of
// silence — that the world moved on and parks (exit 3) before it touches the
// shared checkpoint store. An authentication failure is reported, not
// retried (exit 4). A drained worker commits a checkpoint and exits 5;
// rerunning with the same -checkpoint-dir resumes where the drain stopped.
package main

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/internal/supervise"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/world"
)

// Worker exit codes, classified by the parent's OnExit hook.
const (
	exitOK      = 0 // all roots traversed, artifacts written
	exitFatal   = 1 // unrecoverable worker error: restart
	exitSpec    = 2 // the spec from the parent did not decode or validate: give up
	exitSealed  = 3 // a peer holds a final dead verdict for this proc id: park
	exitAuth    = 4 // handshake authentication failed: give up, do not retry
	exitDrained = 5 // graceful drain completed with a committed checkpoint
)

// envSpec carries the parent→worker protocol: one JSON workerSpec. Its
// presence selects worker mode in the re-executed binary.
const envSpec = "BFSRUN_SPEC"

// workerSpec is everything one worker incarnation is told: the world (with
// Listen naming its own slot and Faults already stripped of the sigkills
// earlier incarnations executed), the root count, the artifact directory,
// and whether this incarnation replaces one that died.
type workerSpec struct {
	world.Spec
	Roots     int
	Out       string
	Restarted bool
	WorldGen  int
}

func main() {
	if env, ok := os.LookupEnv(envSpec); ok {
		os.Exit(workerMain(env))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// ---------------------------------------------------------------------------
// Parent: spawn, babysit, re-admit.

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bfsrun", flag.ContinueOnError)
	spec := world.Default()
	spec.Scale, spec.RanksPerProc, spec.Spares = 14, 2, 1
	spec.Recovery, spec.PeerDead = "restore", 2*time.Second
	spec.GraphFlags(fs)
	spec.EngineFlags(fs)
	spec.SocketFlags(fs)
	fs.IntVar(&spec.Spares, "spares", spec.Spares, "spare worker processes (zero ranks until they adopt a dead process's)")
	var (
		procs    = fs.Int("procs", 2, "rank-hosting worker processes")
		roots    = fs.Int("roots", 4, "number of sampled BFS roots")
		outDir   = fs.String("out", "", "artifact directory for parents files and per-worker reports (empty = fresh temp dir)")
		sockDir  = fs.String("sock-dir", "", "directory for the world's unix sockets (empty = fresh temp dir)")
		jsonOut  = fs.String("json", "", "write the merged machine-readable report (worker run + supervisor resilience) here")
		traceOut = fs.String("trace", "", "write the supervisor's lifecycle event timeline (JSONL) here")
		backoff  = fs.Duration("restart-backoff", 0, "base restart backoff (0 = 2*peer-dead + 1s, so a restarted proc always meets the sealed verdict, never a stale session)")
		backCap  = fs.Duration("backoff-cap", 10*time.Second, "restart backoff cap")
		loopK    = fs.Int("crashloop-k", 4, "crash-loop breaker: give up on a slot after K failures inside -crashloop-window")
		loopWin  = fs.Duration("crashloop-window", time.Minute, "crash-loop breaker sliding window")
		hangTO   = fs.Duration("hang-timeout", 0, "SIGKILL a worker whose control pipe is silent this long (0 = off)")
		drainTO  = fs.Duration("drain-timeout", 20*time.Second, "graceful drain budget before escalating to SIGKILL")
		drainAt  = fs.Duration("drain-after", 0, "drain the world after this long (soak runs; 0 = only on SIGTERM)")
		maxGen   = fs.Int("max-generations", 3, "whole-world relaunches after a crash-loop verdict before giving up")
		verbose  = fs.Bool("verbose", false, "forward worker stderr to the parent's stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procs < 1 || *roots < 1 || spec.Spares < 0 || spec.PeerDead <= 0 {
		fmt.Fprintln(os.Stderr, "bfsrun: need -procs >= 1, -roots >= 1, -spares >= 0 and a positive -peer-dead")
		return 2
	}
	// Validate needs only the process count; the addresses are named once
	// -sock-dir exists.
	spec.Addrs = make([]string, *procs+spec.Spares)
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		return 2
	}
	plan, _ := spec.FaultPlan() // Validate parsed it
	if spec.Secret == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
			return 1
		}
		spec.Secret = hex.EncodeToString(b[:])
	}
	for _, d := range []*string{&spec.CheckpointDir, outDir, sockDir} {
		if *d == "" {
			t, err := os.MkdirTemp("", "bfsrun-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bfsrun:", err)
				return 1
			}
			*d = t
		} else if err := os.MkdirAll(*d, 0o777); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
			return 1
		}
	}
	if *backoff <= 0 {
		// The restart must land after every survivor latched the dead
		// verdict: jitter halves the delay, so base = 2*(peerDead + margin)
		// keeps even the earliest restart behind the verdict. A too-early
		// restart would resume the old session with reset frame sequence
		// numbers instead of meeting the sealed reject.
		*backoff = 2*spec.PeerDead + time.Second
	}

	addrs := spec.Addrs
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(*sockDir, fmt.Sprintf("w%d.sock", i))
	}
	fmt.Printf("bfsrun: %d workers + %d spares, scale %d, %d ranks (%d per process)\n",
		*procs, spec.Spares, spec.Scale, spec.Ranks, spec.RanksPerProc)
	fmt.Printf("bfsrun: checkpoints %s, artifacts %s\n", spec.CheckpointDir, *outDir)

	var tr *trace.Tracer
	var spans *trace.Stream
	if *traceOut != "" {
		tr = trace.New()
		spans = tr.NewStream(-1)
	}
	writeTrace := func() {
		if tr == nil {
			return
		}
		if err := tr.WriteFile(*traceOut, false); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun: trace:", err)
		}
	}

	// consumed counts, per slot, the sigkill clauses a previous incarnation
	// or generation already executed; Start retires them from the plan each
	// spawn so a restarted or relaunched world makes progress instead of
	// re-shooting itself at the same iteration.
	var planMu sync.Mutex
	consumed := map[int]int{}
	worldGen := 0

	start := func(slot, gen int) (*exec.Cmd, error) {
		if p := strings.TrimPrefix(addrs[slot], "unix:"); p != addrs[slot] {
			os.Remove(p) // stale socket from the previous incarnation
		}
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		ws := workerSpec{Spec: spec, Roots: *roots, Out: *outDir, Restarted: gen > 1, WorldGen: worldGen}
		ws.Listen = addrs[slot]
		if plan != nil {
			planMu.Lock()
			ws.Faults = plan.DropSigKills(consumed).String()
			planMu.Unlock()
		}
		env, err := json.Marshal(ws)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envSpec+"="+string(env))
		if *verbose {
			cmd.Stderr = os.Stderr
		}
		return cmd, nil
	}

	onExit := func(x supervise.Exit) supervise.Decision {
		if x.Signal == "killed" {
			// SIGKILL: the fault plan (or the hang detector) shot it. Retire
			// one sigkill clause for the slot and respawn; the world's spare
			// pool is the real re-admission path, the respawn will meet the
			// sealed verdict and park.
			planMu.Lock()
			consumed[x.Slot]++
			planMu.Unlock()
			return supervise.DecideRestart
		}
		switch x.Code {
		case exitOK, exitDrained:
			return supervise.DecideDone
		case exitSealed:
			return supervise.DecidePark
		case exitAuth, exitSpec:
			return supervise.DecideGiveUp
		}
		return supervise.DecideRestart
	}

	onEvent := func(ev supervise.Event) {
		fmt.Fprintf(os.Stderr, "bfsrun: [w%d g%d] %s %s\n", ev.Slot, ev.Gen, ev.Kind, ev.Detail)
		if spans != nil {
			spans.Emit(trace.Span{
				Kind: trace.KindEvent, Rank: -1, Iter: -1, Step: -1, Tag: -1,
				Name:  "supervisor_" + string(ev.Kind),
				Start: tr.Now(),
				Args:  map[string]int64{"slot": int64(ev.Slot), "gen": int64(ev.Gen)},
			})
		}
	}

	// One forwarder delivers SIGTERM/SIGINT (and the -drain-after timer) to
	// whichever supervisor generation is current.
	var cur atomic.Pointer[supervise.Supervisor]
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	stopFwd := make(chan struct{})
	defer close(stopFwd)
	var drainc <-chan time.Time
	if *drainAt > 0 {
		t := time.NewTimer(*drainAt)
		defer t.Stop()
		drainc = t.C
	}
	go func() {
		for {
			select {
			case <-sigc:
			case <-drainc:
			case <-stopFwd:
				return
			}
			if s := cur.Load(); s != nil {
				fmt.Fprintln(os.Stderr, "bfsrun: draining the world")
				s.Drain()
			}
		}
	}()

	// sr accumulates every generation's babysitting record for the report.
	sr := &report.SupervisorResilience{Workers: *procs, Spares: spec.Spares}
	for gen := 1; ; gen++ {
		sr.Generations = gen
		worldGen = gen
		sup, err := supervise.New(supervise.Config{
			Workers:          len(addrs),
			Start:            start,
			OnExit:           onExit,
			OnEvent:          onEvent,
			BackoffBase:      *backoff,
			BackoffCap:       *backCap,
			CrashLoopK:       *loopK,
			CrashLoopWindow:  *loopWin,
			HeartbeatTimeout: *hangTO,
			DrainTimeout:     *drainTO,
			// Concurrently-restarted workers hold no dead verdicts for each
			// other and would form a rump world re-running the fleet's work
			// against live checkpoint scopes; one at a time, each meets the
			// real world's verdict (sealed, orphaned, or re-admitted) alone.
			SerializeRestarts: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
			return 2
		}
		cur.Store(sup)
		runErr := sup.Run()
		cur.Store(nil)
		st := sup.Stats()
		sr.Spawns += st.Spawns
		sr.Restarts += st.Restarts
		sr.Crashes += st.Crashes
		sr.Hangs += st.Hangs
		sr.Parked += st.Parked
		sr.Drained += st.Drained
		if runErr == nil {
			break
		}
		var cl *supervise.CrashLoopError
		if errors.As(runErr, &cl) && gen < *maxGen {
			sr.CrashLoopGiveUps++
			fmt.Fprintf(os.Stderr, "bfsrun: generation %d crash-looped (%v); relaunching the world\n", gen, cl)
			continue
		}
		fmt.Fprintln(os.Stderr, "bfsrun:", runErr)
		writeTrace()
		return 1
	}

	fmt.Printf("bfsrun: world retired after %d generation(s): %d spawns, %d restarts, %d crashes, %d parked, %d drained\n",
		sr.Generations, sr.Spawns, sr.Restarts, sr.Crashes, sr.Parked, sr.Drained)
	if plan != nil {
		// A chaos run must not inject nothing silently. A clause stays unfired
		// when its process never entered the iteration with a rank: the run
		// was shorter, or the world evacuated the process first (the outcome
		// revoke votes an early leaver's ranks dead, DESIGN.md §14).
		for _, k := range plan.DropSigKills(consumed).SigKills {
			fmt.Fprintf(os.Stderr, "bfsrun: fault plan: sigkill@proc=%d,iter=%d never fired\n", k.Proc, k.Iter)
		}
	}

	chosen := -1
	for p := range addrs {
		if _, err := os.Stat(parentsPath(*outDir, p)); err == nil {
			chosen = p
			break
		}
	}
	writeTrace()
	if chosen < 0 {
		if sr.Drained > 0 {
			fmt.Printf("bfsrun: drained before completion; rerun with -checkpoint-dir %s to resume\n", spec.CheckpointDir)
			return 0
		}
		fmt.Fprintln(os.Stderr, "bfsrun: no worker produced a complete parents artifact")
		return 1
	}
	fmt.Printf("bfsrun: parents artifact %s\n", parentsPath(*outDir, chosen))

	if *jsonOut != "" {
		if err := mergeReport(reportPath(*outDir, chosen), *jsonOut, sr); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
			return 1
		}
		fmt.Printf("bfsrun: wrote merged report to %s\n", *jsonOut)
	}
	return 0
}

// mergeReport loads the chosen worker's run report and republishes it with
// the parent's supervisor-resilience block attached.
func mergeReport(workerReport, dst string, sr *report.SupervisorResilience) error {
	r, err := report.ReadFile(workerReport)
	if err != nil {
		return err
	}
	r.Resilience.Supervisor = sr
	return r.WriteFile(dst)
}

func parentsPath(dir string, proc int) string {
	return filepath.Join(dir, fmt.Sprintf("parents-w%d.bin", proc))
}

func reportPath(dir string, proc int) string {
	return filepath.Join(dir, fmt.Sprintf("report-w%d.json", proc))
}

// ---------------------------------------------------------------------------
// Worker: join, traverse, report.

// sigkillTransport wraps the fault plan as a comm.Transport that executes the
// plan's process-suicide clauses: Intercept never returns for a matching
// (proc, iter), so the kill looks to the rest of the world exactly like the
// fail-stop it models.
type sigkillTransport struct {
	plan *faultinject.Plan
	proc int
}

func (t *sigkillTransport) Intercept(c comm.Call) comm.FaultAction {
	if t.plan.SigKillFor(t.proc, c.Iter) {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // the signal is asynchronous; never proceed past it
	}
	return t.plan.Intercept(c)
}

func workerMain(env string) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bfsrun-worker: "+format+"\n", args...)
	}
	rep := supervise.NewReporter()
	stopHB := rep.StartHeartbeat(500 * time.Millisecond)
	defer stopHB()

	var ws workerSpec
	err := world.Decode(env, &ws)
	if err == nil {
		err = ws.Validate()
	}
	if err == nil && ws.Listen == "" {
		err = errors.New("world spec: a worker needs its own socket address (Listen)")
	}
	if err != nil {
		logf("%v", err)
		return exitSpec
	}

	var draining atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	go func() {
		<-sigc
		draining.Store(true)
		rep.Send("draining", "")
	}()

	// Handshake verdicts are final: a sealed proc id parks, a failed
	// authentication gives up. Both exit from the session goroutine the
	// moment the verdict arrives, before any collective can hang on it.
	onReject := func(peer int, err error) {
		switch {
		case errors.Is(err, wire.ErrSealed):
			rep.Sendf("sealed", "peer=%d", peer)
			logf("%s: world moved on while we were dead (peer %d): parking", ws.Listen, peer)
			os.Exit(exitSealed)
		case errors.Is(err, wire.ErrAuth):
			rep.Sendf("auth", "peer=%d", peer)
			logf("%s: handshake authentication failed (peer %d): %v", ws.Listen, peer, err)
			os.Exit(exitAuth)
		}
	}

	g, err := ws.Join(onReject)
	if err != nil {
		logf("join: %v", err)
		return exitFatal
	}
	defer g.Close()
	proc := g.Proc()
	rep.Sendf("joined", "proc=%d of %d gen=%d", proc, g.Procs(), ws.WorldGen)

	// A restarted incarnation replaces a process the world has already
	// written off, and only lower-numbered peers ever get dialed by it: if
	// they are gone too, no sealed verdict can reach it and every collective
	// would time out into a solo run that resumes — and on success prunes —
	// the live world's checkpoint scopes. So it must hear a live peer (any
	// frame; a sealed reject exits above) before it touches shared storage.
	if ws.Restarted && !heardPeer(g, ws.PeerDead) {
		rep.Send("orphaned", "")
		logf("proc %d: restarted into %v of silence; the world moved on: parking", proc, ws.PeerDead)
		return exitSealed
	}

	graph, err := ws.LoadGraph(io.Discard)
	if err != nil {
		logf("graph: %v", err)
		return exitFatal
	}
	cfg, err := ws.Config(g)
	if err != nil {
		logf("config: %v", err)
		return exitFatal
	}
	cfg.Drain = draining.Load
	if plan, ok := cfg.Transport.(*faultinject.Plan); ok {
		cfg.Transport = &sigkillTransport{plan: plan, proc: proc}
	}
	r, err := graph500.New(graph, cfg)
	if err != nil {
		logf("partition: %v", err)
		return exitFatal
	}
	rootList, err := r.SampleRoots(ws.Roots, ws.Seed+1)
	if err != nil {
		logf("roots: %v", err)
		return exitFatal
	}

	var sum graph500.BenchmarkSummary
	results := make([]*graph500.Result, len(rootList))
	for i, root := range rootList {
		// Deterministic per-root scope names survive the process: a relaunched
		// generation resumes each root from the checkpoints the failed world
		// left behind instead of starting over.
		r.Engine.SetResumeFrom(fmt.Sprintf("bfsrun-root%03d", i))
		rep.Sendf("run", "root=%d (%d/%d)", root, i+1, len(rootList))
		res, err := r.Run(root)
		if g.Procs() > 1 && g.WireStats().BytesRecv == 0 {
			// Not one frame ever arrived, to a first incarnation (a restarted
			// one was gated above): every peer was gone before it spoke.
			// Whether the solo run "succeeded" (every peer voted dead, all
			// ranks re-homed onto us) or exhausted its epochs, it was never
			// part of a world — park instead of crash-looping or publishing
			// the fleet's work alone.
			rep.Send("orphaned", "")
			logf("proc %d: no peer ever spoke to us; the world moved on: parking", proc)
			return exitSealed
		}
		if err != nil {
			if errors.Is(err, graph500.ErrDrained) {
				rep.Send("drained", "")
				logf("proc %d: drained at root %d/%d; checkpoints retained", proc, i+1, len(rootList))
				return exitDrained
			}
			logf("proc %d: root %d: %v", proc, root, err)
			return exitFatal
		}
		results[i] = res
		sum.Add(root, res)
	}

	// Only a process whose final epoch hosts ranks assembles real parent
	// arrays; a spare that never adopted (or a process evacuated mid-run)
	// keeps the -1 fill and must not publish an artifact.
	complete := true
	for i, root := range rootList {
		if results[i].Parent[root] != root {
			complete = false
			break
		}
	}
	if complete {
		if err := writeParents(parentsPath(ws.Out, proc), ws.Scale, ws.Seed, rootList, results); err != nil {
			logf("artifact: %v", err)
			return exitFatal
		}
		rc := ws.RunConfig(r)
		rc.Roots, rc.Workload = len(rootList), "bfs"
		doc := report.Build(rc, &sum)
		doc.Resilience.Wire = ws.WireResilience(g)
		if err := doc.WriteFile(reportPath(ws.Out, proc)); err != nil {
			logf("report: %v", err)
			return exitFatal
		}
		rep.Send("artifact", parentsPath(ws.Out, proc))
	}
	rep.Sendf("finished", "hosting ranks %v", r.Engine.World.LocalRanks())
	return exitOK
}

// heardPeer waits up to within for the first frame from any peer.
func heardPeer(g *comm.Group, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for g.WireStats().BytesRecv == 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// writeParents publishes the worker's parent arrays as one deterministic
// binary artifact (header, then root + parents per root, little endian).
// tmp+rename keeps readers from ever seeing a partial file.
func writeParents(path string, scale int, seed uint64, roots []int64, results []*graph500.Result) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hdr := []uint64{0x42465350, 1, uint64(scale), seed, uint64(len(roots))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		f.Close()
		return err
	}
	for i, root := range roots {
		if err := binary.Write(w, binary.LittleEndian, root); err != nil {
			f.Close()
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, results[i].Parent); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
