// Package supervise spawns and babysits a fleet of worker processes: one
// slot per worker, each slot restarted on crash under capped exponential
// backoff with jitter, a crash-loop circuit breaker that gives up with a
// typed error and a post-mortem stderr tail, liveness tracking over a
// control pipe the child inherits, and a graceful drain that forwards
// SIGTERM and escalates to SIGKILL on a deadline.
//
// The package is deliberately ignorant of what the workers compute. The
// caller's Start hook builds each worker's exec.Cmd; the supervisor attaches
// the control pipe (fd 3 in the child, announced via the SUPERVISE_FD
// environment variable), captures a stderr tail for post-mortems, and
// classifies every exit through the OnExit hook into restart / done / park /
// give-up. cmd/bfsrun layers the BFS-specific policy (sealed-slot parking,
// auth give-up, whole-world generation relaunch) on top.
package supervise

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// FDEnv names the environment variable the supervisor sets on every child
// to announce the control pipe's file descriptor. Children call NewReporter,
// which reads it; unsupervised processes (variable unset) get a no-op
// reporter.
const FDEnv = "SUPERVISE_FD"

// controlFD is where the control pipe lands in the child: the first
// ExtraFiles slot after stdin/stdout/stderr.
const controlFD = 3

// ErrCrashLoop is the circuit breaker's verdict: a slot failed CrashLoopK
// times inside CrashLoopWindow and the supervisor stopped retrying.
var ErrCrashLoop = errors.New("supervise: worker crash-looping, giving up")

// ErrGiveUp wraps an OnExit DecideGiveUp verdict: the caller classified one
// worker's exit as fatal for the whole world.
var ErrGiveUp = errors.New("supervise: worker exit classified fatal")

// CrashLoopError carries the breaker's post-mortem. It unwraps to
// ErrCrashLoop.
type CrashLoopError struct {
	Slot     int
	Failures int           // failures inside the window when the breaker tripped
	Window   time.Duration // the sliding window that was exceeded
	// PostMortem is the offending worker's last stderr tail plus its last
	// control-pipe line, the evidence a human needs first.
	PostMortem string
}

func (e *CrashLoopError) Error() string {
	return fmt.Sprintf("supervise: slot %d failed %d times in %v: crash loop; last output:\n%s",
		e.Slot, e.Failures, e.Window, e.PostMortem)
}

func (e *CrashLoopError) Unwrap() error { return ErrCrashLoop }

// GiveUpError carries the exit the OnExit hook declared fatal. It unwraps to
// ErrGiveUp.
type GiveUpError struct {
	Exit Exit
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("supervise: slot %d gen %d exit fatal (%s); last output:\n%s",
		e.Exit.Slot, e.Exit.Gen, e.Exit.status(), e.Exit.StderrTail)
}

func (e *GiveUpError) Unwrap() error { return ErrGiveUp }

// Decision classifies one worker exit.
type Decision int

const (
	// DecideRestart respawns the slot after backoff (breaker permitting).
	DecideRestart Decision = iota
	// DecideDone retires the slot as successfully finished.
	DecideDone
	// DecidePark retires the slot as dead-but-not-fatal: no restart, no
	// error. The BFS use: a restarted worker whose proc id was sealed by the
	// peers' dead verdict can never rejoin; the spare pool already covers it.
	DecidePark
	// DecideGiveUp stops the whole supervisor with a GiveUpError.
	DecideGiveUp
)

// Exit describes one worker exit, as handed to OnExit and carried in
// GiveUpError.
type Exit struct {
	Slot, Gen  int
	Code       int    // exit code; -1 when killed by a signal or never started
	Signal     string // signal name when signal-killed, "" otherwise
	Err        error  // raw Wait/Start error, nil on clean exit
	Hung       bool   // true when the supervisor SIGKILLed it for heartbeat silence
	Uptime     time.Duration
	StderrTail string // last TailBytes of the worker's stderr
	LastLine   string // last control-pipe line, "" if it never reported
}

func (x Exit) status() string {
	switch {
	case x.Hung:
		return "hung, killed by supervisor"
	case x.Signal != "":
		return "signal " + x.Signal
	default:
		return fmt.Sprintf("exit code %d", x.Code)
	}
}

// EventKind tags supervisor lifecycle events.
type EventKind string

const (
	EventSpawn    EventKind = "spawn"
	EventExit     EventKind = "exit"
	EventBackoff  EventKind = "backoff"
	EventRestart  EventKind = "restart"
	EventPark     EventKind = "park"
	EventGiveUp   EventKind = "give_up"
	EventHangKill EventKind = "hang_kill"
	EventDrain    EventKind = "drain"
	EventDone     EventKind = "done"
	// EventChild forwards one raw control-pipe line from a worker.
	EventChild EventKind = "child"
)

// Event is one supervisor lifecycle notification, delivered synchronously on
// the supervisor's loop goroutine.
type Event struct {
	Slot, Gen int
	Kind      EventKind
	Detail    string
}

// Stats counts what the supervisor did, for the resilience report.
type Stats struct {
	Spawns   int64 `json:"spawns"`
	Restarts int64 `json:"restarts"`
	Crashes  int64 `json:"crashes"` // nonzero/signal exits, hangs included
	Hangs    int64 `json:"hangs,omitempty"`
	Parked   int64 `json:"parked,omitempty"`
	Done     int64 `json:"done"`
	Drained  int64 `json:"drained,omitempty"` // workers stopped by a drain
}

// Config configures a Supervisor. Workers and Start are mandatory.
type Config struct {
	// Workers is the number of slots; slot ids are 0..Workers-1.
	Workers int
	// Start builds (without starting) the command for one slot's gen-th
	// incarnation. The supervisor attaches the control pipe and stderr tail,
	// then starts it.
	Start func(slot, gen int) (*exec.Cmd, error)
	// OnExit classifies a worker exit. nil defaults to: code 0 → DecideDone,
	// anything else → DecideRestart.
	OnExit func(Exit) Decision
	// OnEvent, when non-nil, observes lifecycle events (loop goroutine; keep
	// it fast).
	OnEvent func(Event)

	// BackoffBase is the first restart delay, doubling per consecutive crash
	// up to BackoffCap, with uniform [1/2,1] jitter. Defaults 100ms / 5s.
	BackoffBase, BackoffCap time.Duration
	// CrashLoopK failures within CrashLoopWindow trip the breaker (defaults
	// 5 in 30s). A worker that stays up longer than the window resets its
	// slot's consecutive-crash count.
	CrashLoopK      int
	CrashLoopWindow time.Duration
	// HeartbeatTimeout kills a worker whose control pipe has been silent
	// this long — but only workers that reported at least once, so children
	// that never adopt the reporter are not shot for silence. 0 disables.
	HeartbeatTimeout time.Duration
	// DrainTimeout bounds a graceful drain: SIGTERM first, SIGKILL to
	// whatever is still alive at the deadline. Default 10s.
	DrainTimeout time.Duration
	// TailBytes is the per-worker stderr tail kept for post-mortems
	// (default 4096).
	TailBytes int
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		return fmt.Errorf("supervise: %d workers", c.Workers)
	}
	if c.Start == nil {
		return errors.New("supervise: Config.Start is required")
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.CrashLoopK <= 0 {
		c.CrashLoopK = 5
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.TailBytes <= 0 {
		c.TailBytes = 4096
	}
	return nil
}

type slotState int

const (
	slotIdle slotState = iota
	slotRunning
	slotBackoff
	slotDone
	slotParked
)

type slot struct {
	id       int
	gen      int // incarnation counter, bumped per spawn
	state    slotState
	cmd      *exec.Cmd
	tail     *tailBuffer
	started  time.Time
	lastBeat time.Time
	lastLine string
	beating  bool // reported at least once on the control pipe
	hung     bool // marked by the hang killer; annotates the next exit

	crashes  int         // consecutive crashes, resets after a long run
	failures []time.Time // breaker window
}

type exitMsg struct {
	slot, gen int
	err       error
	uptime    time.Duration
}

type lineMsg struct {
	slot, gen int
	text      string
}

// Supervisor babysits Config.Workers worker processes until every slot is
// done or parked, the crash-loop breaker trips, an exit is classified fatal,
// or a drain completes.
type Supervisor struct {
	cfg   Config
	slots []*slot

	exitCh    chan exitMsg
	lineCh    chan lineMsg
	restartCh chan int
	drainCh   chan struct{}

	// pendingRestarts queues slots whose backoff expired while another
	// restarted incarnation (gen > 1) was running: restarts are serialized.
	// Concurrently-restarted members of a distributed world cannot be told
	// apart from a fresh world by each other — they hold no dead verdicts
	// for one another — so they would recognize each other as a quorum and
	// re-run the world's work as a rump session against live state.
	// Serialized, each restart meets the real world's verdict
	// (re-admission, sealed rejection, or orphan silence) alone.
	pendingRestarts []int

	mu        sync.Mutex
	stats     Stats
	drainOnce sync.Once
}

// New validates the config and prepares a supervisor; Run starts the fleet.
func New(cfg Config) (*Supervisor, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:       cfg,
		exitCh:    make(chan exitMsg, cfg.Workers),
		lineCh:    make(chan lineMsg, cfg.Workers*4),
		restartCh: make(chan int, cfg.Workers),
		drainCh:   make(chan struct{}, 1),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots = append(s.slots, &slot{id: i})
	}
	return s, nil
}

// Stats returns a snapshot of the supervisor's counters; safe concurrently
// with Run.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Drain asks Run to stop gracefully: every running worker gets SIGTERM, the
// drain deadline escalates survivors to SIGKILL, and Run returns nil.
// Safe from any goroutine (a signal handler, typically); repeat calls no-op.
func (s *Supervisor) Drain() {
	s.drainOnce.Do(func() { s.drainCh <- struct{}{} })
}

func (s *Supervisor) emit(ev Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

func (s *Supervisor) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// spawn starts slot sl's next incarnation: control pipe attached as the
// child's fd 3 (announced via SUPERVISE_FD), stderr teed into the
// post-mortem tail. A failed start is fed back as a synthetic exit so the
// normal crash policy (backoff, breaker) applies to unstartable workers too.
func (s *Supervisor) spawn(sl *slot) {
	sl.gen++
	gen := sl.gen
	sl.tail = &tailBuffer{max: s.cfg.TailBytes}
	sl.beating = false
	sl.hung = false
	sl.lastLine = ""
	fail := func(err error) {
		sl.state = slotRunning // the exit handler transitions it
		s.exitCh <- exitMsg{slot: sl.id, gen: gen, err: err}
	}
	cmd, err := s.cfg.Start(sl.id, gen)
	if err != nil {
		fail(fmt.Errorf("start hook: %w", err))
		return
	}
	r, w, err := os.Pipe()
	if err != nil {
		fail(err)
		return
	}
	cmd.ExtraFiles = append(cmd.ExtraFiles, w)
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", FDEnv, controlFD+len(cmd.ExtraFiles)-1))
	if cmd.Stderr == nil {
		cmd.Stderr = sl.tail
	} else {
		cmd.Stderr = io.MultiWriter(cmd.Stderr, sl.tail)
	}
	if cmd.SysProcAttr == nil {
		// Each worker leads its own process group so kills and drains reach
		// the whole worker tree: a hung worker's orphaned children would
		// otherwise hold its stderr pipe open and block Wait forever.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	}
	if err := cmd.Start(); err != nil {
		r.Close()
		w.Close()
		fail(err)
		return
	}
	w.Close() // child holds the write end now; EOF on r tracks its death
	sl.cmd = cmd
	sl.started = time.Now()
	sl.lastBeat = sl.started
	sl.state = slotRunning
	s.bump(func(st *Stats) { st.Spawns++ })
	s.emit(Event{Slot: sl.id, Gen: gen, Kind: EventSpawn, Detail: cmd.Path})

	go s.readControl(sl.id, gen, r)
	go func() {
		start := time.Now()
		err := cmd.Wait()
		s.exitCh <- exitMsg{slot: sl.id, gen: gen, err: err, uptime: time.Since(start)}
	}()
}

// readControl scans one incarnation's control pipe into lineMsgs until EOF.
func (s *Supervisor) readControl(id, gen int, r *os.File) {
	defer r.Close()
	buf := make([]byte, 0, 256)
	one := make([]byte, 512)
	for {
		n, err := r.Read(one)
		if n > 0 {
			buf = append(buf, one[:n]...)
			for {
				i := indexByte(buf, '\n')
				if i < 0 {
					break
				}
				line := string(buf[:i])
				buf = append(buf[:0], buf[i+1:]...)
				if line != "" {
					s.lineCh <- lineMsg{slot: id, gen: gen, text: line}
				}
			}
		}
		if err != nil {
			return
		}
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// jittered maps d to a uniform sample in [d/2, d], desynchronizing restart
// stampedes the same way the wire dialer's backoff does.
func jittered(d time.Duration) time.Duration {
	if d <= time.Microsecond {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int64N(half+1))
}

// Run spawns every slot and babysits the fleet. It returns nil when all
// slots are done or parked (or a Drain completed), a *CrashLoopError when
// one slot trips the breaker, and a *GiveUpError when OnExit declares an
// exit fatal. On an error return every still-running worker is SIGKILLed.
func (s *Supervisor) Run() error {
	for _, sl := range s.slots {
		s.spawn(sl)
	}

	var tick *time.Ticker
	var tickC <-chan time.Time
	if s.cfg.HeartbeatTimeout > 0 {
		period := s.cfg.HeartbeatTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick = time.NewTicker(period)
		tickC = tick.C
		defer tick.Stop()
	}

	for {
		select {
		case ex := <-s.exitCh:
			if err := s.handleExit(ex); err != nil {
				s.killAll()
				return err
			}
			s.popRestart()
		case ln := <-s.lineCh:
			sl := s.slots[ln.slot]
			if ln.gen != sl.gen {
				break // stale line from a replaced incarnation
			}
			sl.beating = true
			sl.lastBeat = time.Now()
			sl.lastLine = ln.text
			s.emit(Event{Slot: ln.slot, Gen: ln.gen, Kind: EventChild, Detail: ln.text})
		case id := <-s.restartCh:
			sl := s.slots[id]
			if sl.state != slotBackoff {
				break // drained or killed while waiting
			}
			if s.restartedRunning() {
				s.pendingRestarts = append(s.pendingRestarts, id)
				break
			}
			s.restart(sl)
		case <-s.drainCh:
			s.drain()
			return nil
		case <-tickC:
			s.checkHangs()
		}
		if s.allRetired() {
			return nil
		}
	}
}

// handleExit classifies one worker death and either retires the slot,
// schedules a restart, or returns the fatal verdict that stops Run.
func (s *Supervisor) handleExit(ex exitMsg) error {
	sl := s.slots[ex.slot]
	if ex.gen != sl.gen || sl.state != slotRunning {
		return nil // an incarnation the supervisor already replaced
	}
	sl.cmd = nil
	x := Exit{
		Slot: ex.slot, Gen: ex.gen, Code: -1, Err: ex.err, Hung: sl.hung,
		Uptime: ex.uptime, StderrTail: sl.tail.String(), LastLine: sl.lastLine,
	}
	var ee *exec.ExitError
	switch {
	case ex.err == nil:
		x.Code = 0
	case errors.As(ex.err, &ee):
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			x.Signal = ws.Signal().String()
		} else {
			x.Code = ee.ExitCode()
		}
	}
	s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventExit, Detail: x.status()})

	decide := s.cfg.OnExit
	if decide == nil {
		decide = func(x Exit) Decision {
			if x.Code == 0 {
				return DecideDone
			}
			return DecideRestart
		}
	}
	switch decide(x) {
	case DecideDone:
		sl.state = slotDone
		s.bump(func(st *Stats) { st.Done++ })
		s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventDone})
		return nil
	case DecidePark:
		sl.state = slotParked
		s.bump(func(st *Stats) { st.Parked++ })
		s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventPark, Detail: x.status()})
		return nil
	case DecideGiveUp:
		s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventGiveUp, Detail: x.status()})
		return &GiveUpError{Exit: x}
	}

	// DecideRestart: count the crash, consult the breaker, back off.
	s.bump(func(st *Stats) { st.Crashes++ })
	if ex.uptime > s.cfg.CrashLoopWindow {
		sl.crashes = 0 // it ran long enough to call the previous life healthy
	}
	sl.crashes++
	now := time.Now()
	sl.failures = append(sl.failures, now)
	cut := 0
	for cut < len(sl.failures) && now.Sub(sl.failures[cut]) > s.cfg.CrashLoopWindow {
		cut++
	}
	sl.failures = sl.failures[cut:]
	if len(sl.failures) >= s.cfg.CrashLoopK {
		pm := x.StderrTail
		if x.LastLine != "" {
			pm += "\nlast report: " + x.LastLine
		}
		s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventGiveUp, Detail: "crash loop"})
		return &CrashLoopError{
			Slot: x.Slot, Failures: len(sl.failures),
			Window: s.cfg.CrashLoopWindow, PostMortem: pm,
		}
	}
	backoff := s.cfg.BackoffBase << uint(sl.crashes-1)
	if backoff > s.cfg.BackoffCap || backoff <= 0 {
		backoff = s.cfg.BackoffCap
	}
	backoff = jittered(backoff)
	sl.state = slotBackoff
	s.emit(Event{Slot: x.Slot, Gen: x.Gen, Kind: EventBackoff, Detail: backoff.String()})
	id := sl.id
	time.AfterFunc(backoff, func() { s.restartCh <- id })
	return nil
}

// restart respawns a slot whose backoff has expired and whose turn it is.
func (s *Supervisor) restart(sl *slot) {
	s.bump(func(st *Stats) { st.Restarts++ })
	s.emit(Event{Slot: sl.id, Gen: sl.gen + 1, Kind: EventRestart})
	s.spawn(sl)
}

// restartedRunning reports whether any restarted (gen > 1) incarnation is
// currently alive.
func (s *Supervisor) restartedRunning() bool {
	for _, sl := range s.slots {
		if sl.state == slotRunning && sl.gen > 1 {
			return true
		}
	}
	return false
}

// popRestart releases the next queued serialized restart once no restarted
// incarnation is running anymore.
func (s *Supervisor) popRestart() {
	for len(s.pendingRestarts) > 0 && !s.restartedRunning() {
		id := s.pendingRestarts[0]
		s.pendingRestarts = s.pendingRestarts[1:]
		sl := s.slots[id]
		if sl.state != slotBackoff {
			continue // drained or killed while queued
		}
		s.restart(sl)
		return
	}
}

// checkHangs SIGKILLs workers that adopted the reporter and then went silent
// past HeartbeatTimeout; the kill surfaces as a normal exit and flows through
// the restart policy.
func (s *Supervisor) checkHangs() {
	now := time.Now()
	for _, sl := range s.slots {
		if sl.state != slotRunning || !sl.beating || sl.hung {
			continue
		}
		if now.Sub(sl.lastBeat) <= s.cfg.HeartbeatTimeout {
			continue
		}
		sl.hung = true
		s.bump(func(st *Stats) { st.Hangs++ })
		s.emit(Event{Slot: sl.id, Gen: sl.gen, Kind: EventHangKill,
			Detail: now.Sub(sl.lastBeat).String()})
		signalTree(sl.cmd, syscall.SIGKILL)
	}
}

// drain forwards SIGTERM to every running worker, cancels pending restarts,
// and reaps exits until everything is down or DrainTimeout escalates the
// stragglers to SIGKILL.
func (s *Supervisor) drain() {
	s.emit(Event{Slot: -1, Kind: EventDrain})
	running := 0
	for _, sl := range s.slots {
		switch sl.state {
		case slotBackoff:
			sl.state = slotParked // never coming back; drained while down
		case slotRunning:
			running++
			signalTree(sl.cmd, syscall.SIGTERM)
		}
	}
	deadline := time.After(s.cfg.DrainTimeout)
	for running > 0 {
		select {
		case ex := <-s.exitCh:
			sl := s.slots[ex.slot]
			if ex.gen != sl.gen || sl.state != slotRunning {
				break
			}
			sl.state = slotDone
			sl.cmd = nil
			running--
			s.bump(func(st *Stats) { st.Drained++ })
			s.emit(Event{Slot: ex.slot, Gen: ex.gen, Kind: EventExit, Detail: "drained"})
		case <-s.lineCh:
			// Keep the control pipes flowing so a worker heartbeating through
			// its drain never blocks on a full pipe instead of exiting.
		case <-deadline:
			for _, sl := range s.slots {
				if sl.state == slotRunning {
					signalTree(sl.cmd, syscall.SIGKILL)
				}
			}
			deadline = nil // reap the kills; nil channel never fires again
		}
	}
}

// signalTree delivers sig to the worker's whole process group, falling back
// to the lead process when the group is gone or was never created.
func signalTree(cmd *exec.Cmd, sig syscall.Signal) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	if err := syscall.Kill(-cmd.Process.Pid, sig); err != nil {
		_ = cmd.Process.Signal(sig)
	}
}

// killAll SIGKILLs whatever is still up; the error paths' cleanup.
func (s *Supervisor) killAll() {
	for _, sl := range s.slots {
		if sl.state == slotRunning {
			signalTree(sl.cmd, syscall.SIGKILL)
		}
		if sl.state == slotBackoff {
			sl.state = slotParked
		}
	}
}

// allRetired reports whether every slot reached a terminal state.
func (s *Supervisor) allRetired() bool {
	for _, sl := range s.slots {
		if sl.state != slotDone && sl.state != slotParked {
			return false
		}
	}
	return true
}

// tailBuffer keeps the last max bytes written, for post-mortems.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
