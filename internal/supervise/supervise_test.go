package supervise

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sh builds a Start hook launching one shell script per slot; {SLOT} and
// {GEN} in the script are substituted so incarnations can tell themselves
// apart.
func sh(script string) func(slot, gen int) (*exec.Cmd, error) {
	return func(slot, gen int) (*exec.Cmd, error) {
		body := strings.ReplaceAll(script, "{SLOT}", itoa(slot))
		body = strings.ReplaceAll(body, "{GEN}", itoa(gen))
		return exec.Command("/bin/sh", "-c", body), nil
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// eventLog collects supervisor events thread-safely.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds() map[EventKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[EventKind]int{}
	for _, ev := range l.evs {
		m[ev.Kind]++
	}
	return m
}

func TestSupervisorAllWorkersFinish(t *testing.T) {
	var log eventLog
	s, err := New(Config{
		Workers: 3,
		Start:   sh("exit 0"),
		OnEvent: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.Spawns != 3 || st.Done != 3 || st.Crashes != 0 || st.Restarts != 0 {
		t.Fatalf("stats %+v, want 3 spawns all done", st)
	}
	if k := log.kinds(); k[EventSpawn] != 3 || k[EventDone] != 3 {
		t.Fatalf("events %v", k)
	}
}

// TestSupervisorRestartsCrashOnce: gen 1 crashes, gen 2 succeeds — one
// restart after backoff, then a clean finish.
func TestSupervisorRestartsCrashOnce(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "crashed")
	s, err := New(Config{
		Workers: 1,
		Start: sh("if [ -e " + marker + " ]; then exit 0; fi; " +
			"touch " + marker + "; echo doomed-incarnation >&2; exit 1"),
		BackoffBase: 5 * time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.Spawns != 2 || st.Restarts != 1 || st.Crashes != 1 || st.Done != 1 {
		t.Fatalf("stats %+v, want 1 crash + 1 restart + done", st)
	}
}

// TestSupervisorCrashLoopBreaker: a worker that always dies must trip the
// breaker after CrashLoopK failures with the stderr tail in the post-mortem,
// not restart forever.
func TestSupervisorCrashLoopBreaker(t *testing.T) {
	s, err := New(Config{
		Workers:         1,
		Start:           sh("echo gen-{GEN} exploding >&2; exit 7"),
		BackoffBase:     time.Millisecond,
		BackoffCap:      4 * time.Millisecond,
		CrashLoopK:      3,
		CrashLoopWindow: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run()
	if !errors.Is(err, ErrCrashLoop) {
		t.Fatalf("Run = %v, want ErrCrashLoop", err)
	}
	var cl *CrashLoopError
	if !errors.As(err, &cl) {
		t.Fatalf("error %T lacks CrashLoopError", err)
	}
	if cl.Slot != 0 || cl.Failures != 3 {
		t.Fatalf("breaker verdict %+v", cl)
	}
	if !strings.Contains(cl.PostMortem, "exploding") {
		t.Fatalf("post-mortem lost the stderr tail: %q", cl.PostMortem)
	}
	if st := s.Stats(); st.Crashes != 3 || st.Restarts != 2 {
		t.Fatalf("stats %+v, want 3 crashes / 2 restarts before the third verdict", st)
	}
}

// TestSupervisorExitClassification: OnExit parks a sealed exit code and
// gives up on a fatal one.
func TestSupervisorExitClassification(t *testing.T) {
	s, err := New(Config{
		Workers: 2,
		Start:   sh("exit $((3 + {SLOT} * 0))"), // both exit 3
		OnExit: func(x Exit) Decision {
			if x.Code == 3 {
				return DecidePark
			}
			return DecideRestart
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("parked exits must not fail Run: %v", err)
	}
	if st := s.Stats(); st.Parked != 2 || st.Restarts != 0 {
		t.Fatalf("stats %+v, want both slots parked", st)
	}

	s2, err := New(Config{
		Workers: 1,
		Start:   sh("echo bad-credentials >&2; exit 4"),
		OnExit: func(x Exit) Decision {
			if x.Code == 4 {
				return DecideGiveUp
			}
			return DecideRestart
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Run()
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Run = %v, want ErrGiveUp", err)
	}
	var gu *GiveUpError
	if !errors.As(err, &gu) || gu.Exit.Code != 4 || !strings.Contains(gu.Exit.StderrTail, "bad-credentials") {
		t.Fatalf("give-up verdict %+v", err)
	}
}

// TestSupervisorHangKill: a worker that heartbeats once and then goes silent
// must be shot by the hang detector; a worker that never reports must not be.
func TestSupervisorHangKill(t *testing.T) {
	var log eventLog
	s, err := New(Config{
		Workers: 2,
		// Slot 0 reports then hangs; slot 1 never reports and finishes slowly.
		Start: func(slot, gen int) (*exec.Cmd, error) {
			if slot == 0 {
				// The control pipe is fd 3 (no other ExtraFiles here).
				return exec.Command("/bin/sh", "-c",
					"echo heartbeat >&3; sleep 60"), nil
			}
			return exec.Command("/bin/sh", "-c", "sleep 0.4; exit 0"), nil
		},
		OnExit: func(x Exit) Decision {
			if x.Hung {
				return DecidePark
			}
			if x.Code == 0 {
				return DecideDone
			}
			return DecideRestart
		},
		HeartbeatTimeout: 100 * time.Millisecond,
		OnEvent:          log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor never finished; hang detector did not fire")
	}
	st := s.Stats()
	if st.Hangs != 1 || st.Parked != 1 || st.Done != 1 {
		t.Fatalf("stats %+v, want 1 hang-kill parked + 1 clean finish", st)
	}
	if k := log.kinds(); k[EventHangKill] != 1 || k[EventChild] < 1 {
		t.Fatalf("events %v, want one hang_kill and the forwarded heartbeat", k)
	}
}

// TestSupervisorDrain: Drain must SIGTERM the fleet, let workers exit
// gracefully, and return nil from Run.
func TestSupervisorDrain(t *testing.T) {
	s, err := New(Config{
		Workers:      2,
		Start:        sh(`trap 'exit 0' TERM; while :; do sleep 0.02; done`),
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	time.Sleep(150 * time.Millisecond) // let both shells install their traps
	s.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if st := s.Stats(); st.Drained != 2 {
		t.Fatalf("stats %+v, want both workers drained", st)
	}
}

// TestSupervisorDrainEscalates: a worker ignoring SIGTERM must be SIGKILLed
// at the drain deadline rather than blocking the drain forever.
func TestSupervisorDrainEscalates(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		Start:        sh(`trap '' TERM; while :; do sleep 0.02; done`),
		DrainTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	time.Sleep(150 * time.Millisecond)
	s.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after escalated drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never escalated to SIGKILL")
	}
}

// TestSupervisorSerializesRestarts: two slots whose
// first incarnations crash together must run their replacements one at a
// time. The replacements race for an atomic mkdir lock; any overlap leaves a
// marker file.
func TestSupervisorSerializesRestarts(t *testing.T) {
	dir := t.TempDir()
	lock := filepath.Join(dir, "lock")
	overlap := filepath.Join(dir, "overlap")
	s, err := New(Config{
		Workers: 2,
		Start: sh("if [ {GEN} -eq 1 ]; then exit 1; fi; " +
			"if mkdir " + lock + " 2>/dev/null; then sleep 0.15; rmdir " + lock + "; exit 0; " +
			"else echo gen-{GEN} >> " + overlap + "; exit 0; fi"),
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b, err := os.ReadFile(overlap); err == nil {
		t.Fatalf("restarted incarnations overlapped: %s", b)
	}
	if st := s.Stats(); st.Spawns != 4 || st.Restarts != 2 || st.Done != 2 {
		t.Fatalf("stats %+v, want 2 crashes each restarted once and finished", st)
	}
}

func TestReporterUnsupervisedIsNoop(t *testing.T) {
	t.Setenv(FDEnv, "")
	r := NewReporter()
	if r.Supervised() {
		t.Fatal("reporter claims supervision without SUPERVISE_FD")
	}
	r.Send("heartbeat", "") // must not panic or write anywhere
	stop := r.StartHeartbeat(time.Millisecond)
	stop()
}

func TestJitteredStaysInHalfOpenRange(t *testing.T) {
	d := 80 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := jittered(d)
		if j < d/2 || j > d {
			t.Fatalf("jittered(%v) = %v outside [d/2, d]", d, j)
		}
	}
}
