package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/world"
)

// TestMain doubles as the worker entry point: the supervisor under test
// re-executes this test binary with BFSRUN_SPEC set, which must behave
// exactly like the installed bfsrun worker.
func TestMain(m *testing.M) {
	if env, ok := os.LookupEnv(envSpec); ok {
		os.Exit(workerMain(env))
	}
	os.Exit(m.Run())
}

// spawnWorker starts one worker incarnation of the two-process world in dir
// directly, as the supervisor would: the test binary with an encoded spec.
func spawnWorker(t *testing.T, dir string, proc int, edit func(*workerSpec)) *exec.Cmd {
	t.Helper()
	ws := workerSpec{Spec: world.Default(), Roots: 1, Out: filepath.Join(dir, "out")}
	ws.Scale, ws.Ranks, ws.RanksPerProc = 8, 4, 2
	ws.Recovery, ws.CheckpointDir = "restore", filepath.Join(dir, "ckpt")
	ws.Addrs = []string{"unix:" + filepath.Join(dir, "w0.sock"), "unix:" + filepath.Join(dir, "w1.sock")}
	ws.Listen = ws.Addrs[proc]
	edit(&ws)
	env, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(ws.Out, 0o777); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envSpec+"="+string(env))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// runWorld drives a full supervised world in-process (workers are real child
// processes) and returns the chosen parents artifact.
func runWorld(t *testing.T, dir string, extra ...string) []byte {
	t.Helper()
	args := append([]string{
		"-procs", "3", "-spares", "2",
		"-scale", "10", "-ranks-per-proc", "2", "-roots", "2", "-seed", "42",
		"-peer-dead", "1s",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-out", filepath.Join(dir, "out"),
		"-sock-dir", filepath.Join(dir, "sock"),
	}, extra...)
	if code := parentMain(args); code != 0 {
		t.Fatalf("bfsrun %v = exit %d", args, code)
	}
	// The chosen artifact is the lowest-numbered complete worker's — worker 0
	// fault-free, but a spare's when the storm killed worker 0 itself. Every
	// complete worker writes identical bytes, so the lexical minimum is it.
	paths, err := filepath.Glob(filepath.Join(dir, "out", "parents-w*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("parents artifact: %v (found %v)", err, paths)
	}
	sort.Strings(paths)
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatalf("parents artifact: %v", err)
	}
	return b
}

// TestBFSRunKillStormBitIdentical is the chaos acceptance test: the fault
// plan SIGKILLs each of the three rank-hosting workers once (iterations 1, 2
// and 3 — a rolling storm with two corpses in flight at once), the spares
// adopt the first two victims' ranks from the shared checkpoint store, the
// third victim's ranks fall back onto a live adopter, the restarted
// processes meet the sealed handshake verdict (or the orphan gate) and park —
// and the retired world's parent arrays are bit-identical to a fault-free
// world's.
func TestBFSRunKillStormBitIdentical(t *testing.T) {
	refDir, stormDir := t.TempDir(), t.TempDir()
	ref := runWorld(t, refDir, "-json", filepath.Join(refDir, "run.json"))
	storm := runWorld(t, stormDir,
		"-faults", "sigkill@proc=0,iter=3,sigkill@proc=1,iter=1,sigkill@proc=2,iter=2",
		"-json", filepath.Join(stormDir, "run.json"))
	if !bytes.Equal(ref, storm) {
		t.Fatalf("parents diverged under the SIGKILL storm: %d vs %d bytes", len(ref), len(storm))
	}

	refRep := readReport(t, filepath.Join(refDir, "run.json"))
	if s := refRep.Resilience.Supervisor; s == nil ||
		s.Spawns != 5 || s.Restarts != 0 || s.Generations != 1 {
		t.Fatalf("fault-free supervisor block %+v", refRep.Resilience.Supervisor)
	}
	if w := refRep.Resilience.Wire; w == nil || w.AuthRejects != 0 {
		t.Fatalf("fault-free wire block %+v", refRep.Resilience.Wire)
	}

	stormRep := readReport(t, filepath.Join(stormDir, "run.json"))
	sr := stormRep.Resilience.Supervisor
	if sr == nil {
		t.Fatal("storm report lost the supervisor block")
	}
	// Every fault must have landed, asserted without scheduler luck. A
	// clause fires when its process enters the iteration with a rank, and
	// root 1 runs five iterations — unless the world evacuated the process
	// first: when survivors disagree on which collective surfaced a death,
	// the outcome revoke (DESIGN.md §14) votes an early leaver's ranks dead
	// too, and a process without ranks enters no iteration (seen in about
	// one contended run in twenty; the supervisor names the clause on
	// stderr). Either way each of the three original hosts lost its two
	// ranks to the storm, the first clause — nothing precedes it — was a
	// real SIGKILL, and its slot went through the restart path.
	// Parked is not asserted: a restarted worker parks on the sealed verdict
	// (world alive) or the orphan gate (no live peer left to dial), but if
	// its exec raced the supervisor's drain reap it may be counted Drained
	// instead — either way it never rejoins.
	if lost := stormRep.Resilience.RanksLost; lost < 6 || sr.Crashes < 1 || sr.Restarts < 1 {
		t.Fatalf("storm lost %d ranks, supervisor block %+v; want all 6 original rank slots lost, a crash and a restart", lost, sr)
	}
	if sr.Crashes < 3 {
		t.Logf("only %d of 3 sigkill clauses fired; the world evacuated the other targets first", sr.Crashes)
	}
	if sr.CrashLoopGiveUps != 0 || sr.Generations != 1 {
		t.Fatalf("storm world needed relaunching: %+v", sr)
	}
}

// TestBFSRunDrainThenResume drains the world mid-run (the -drain-after soak
// hook stands in for SIGTERM, which would stop the test process itself);
// workers commit a checkpoint and exit 5. Rerunning against the same
// checkpoint and artifact directories completes the traversal with parents
// bit-identical to an undisturbed world.
func TestBFSRunDrainThenResume(t *testing.T) {
	refDir, dir := t.TempDir(), t.TempDir()
	ref := runWorld(t, refDir, "-json", filepath.Join(refDir, "run.json"))
	// A fault-free world keeps every connection it opened. A session torn
	// down on a spurious read timeout heals silently — the replay hides it —
	// and costs a stall of three heartbeat intervals, so it has to be caught
	// from the counters.
	if w := readReport(t, filepath.Join(refDir, "run.json")).Resilience.Wire; w == nil ||
		w.Reconnects != 0 || w.FramesResent != 0 {
		t.Fatalf("fault-free wire block %+v, want no reconnects and nothing resent", w)
	}

	args := []string{
		"-procs", "3", "-spares", "2",
		"-scale", "10", "-ranks-per-proc", "2", "-roots", "2", "-seed", "42",
		"-peer-dead", "1s",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-out", filepath.Join(dir, "out"),
		"-sock-dir", filepath.Join(dir, "sock"),
	}
	if code := parentMain(append(args, "-drain-after", "300ms")); code != 0 {
		t.Fatalf("drained run = exit %d", code)
	}
	resumed := runWorld(t, dir)
	if !bytes.Equal(ref, resumed) {
		t.Fatalf("parents diverged across drain + resume: %d vs %d bytes", len(ref), len(resumed))
	}
}

// TestBFSRunWrongSecretExitsAuth spawns two workers whose world secrets
// disagree: the handshake must fail with the typed auth verdict (exit 4)
// before either joins, with no retry loop.
func TestBFSRunWrongSecretExitsAuth(t *testing.T) {
	dir := t.TempDir()
	spawn := func(proc int, secret string) *exec.Cmd {
		return spawnWorker(t, dir, proc, func(ws *workerSpec) {
			ws.Secret = secret
			ws.PeerDead = 30 * time.Second // only the auth verdict may take these workers down
		})
	}
	workers := []*exec.Cmd{spawn(0, "alpha"), spawn(1, "beta")}
	type exitRes struct{ proc, code int }
	exits := make(chan exitRes, len(workers))
	for i, w := range workers {
		go func(i int, w *exec.Cmd) {
			w.Wait()
			exits <- exitRes{i, w.ProcessState.ExitCode()}
		}(i, w)
	}
	// Whichever side completes the proof exchange first detects the mismatch
	// and must die on the typed verdict; its peer only sees a vanished
	// connection (the failure detector's job, not the handshake's), so the
	// test reaps it rather than asserting its exit.
	select {
	case r := <-exits:
		if r.code != exitAuth {
			t.Fatalf("worker %d exit = %d, want %d (typed auth rejection)", r.proc, r.code, exitAuth)
		}
	case <-time.After(60 * time.Second):
		for _, w := range workers {
			w.Process.Kill()
		}
		t.Fatal("no worker exited on the auth verdict")
	}
	for _, w := range workers {
		w.Process.Kill()
	}
	<-exits
}

// TestRestartedWorkerParksBeforeSharedStorage is the pre-run orphan gate,
// deterministically: a restarted incarnation of proc 1 whose only dialable
// peer (proc 0) is gone hears nothing for peer-dead and must park (exit 3)
// without resuming, or on "success" pruning, the live world's checkpoint
// scope — the solo run that made the kill storm flaky.
func TestRestartedWorkerParksBeforeSharedStorage(t *testing.T) {
	dir := t.TempDir()
	scope := filepath.Join(dir, "ckpt", "runs", "bfsrun-root000")
	if err := os.MkdirAll(scope, 0o777); err != nil {
		t.Fatal(err)
	}
	w := spawnWorker(t, dir, 1, func(ws *workerSpec) {
		ws.Restarted = true
		ws.PeerDead = 300 * time.Millisecond
	})
	w.Wait()
	if code := w.ProcessState.ExitCode(); code != exitSealed {
		t.Fatalf("orphaned restart exit = %d, want %d (park)", code, exitSealed)
	}
	if _, err := os.Stat(scope); err != nil {
		t.Fatalf("orphaned restart touched the live world's checkpoint scope: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "out", "*")); len(left) != 0 {
		t.Fatalf("orphaned restart published artifacts: %v", left)
	}
}

// TestWorkerRejectsMalformedSpec: a spec that does not decode strictly is
// fatal in that worker (exit 2, give up), never a silent default.
func TestWorkerRejectsMalformedSpec(t *testing.T) {
	noSocket := workerSpec{Spec: world.Default(), Roots: 1}
	noSocket.Ranks = 4
	inProcess, _ := json.Marshal(noSocket)
	for _, env := range []string{`{"Scale":"ten"}`, `{"Scael":10}`, `{"Scale":10} trailing`, ``, string(inProcess)} {
		if code := workerMain(env); code != exitSpec {
			t.Errorf("workerMain(%q) = exit %d, want %d", env, code, exitSpec)
		}
	}
}

func readReport(t *testing.T, path string) *report.Report {
	t.Helper()
	r, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
