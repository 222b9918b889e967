package wire

import (
	"bufio"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerDead is returned by Send once the failure detector has declared the
// peer process dead. The verdict is final for the endpoint's lifetime: a dead
// peer's ranks are re-homed by a world epoch rebuild, never resumed.
var ErrPeerDead = errors.New("wire: peer process dead")

// ErrAuth marks a failed handshake authentication: the peer presented a
// wrong or missing proof for the world's shared secret, or rejected ours.
// The verdict is permanent for the session — an auth failure is a
// configuration or security problem, so it is reported (OnReject, Stats)
// and the dialer stops redialing instead of retrying into the same wall.
var ErrAuth = errors.New("wire: authentication rejected")

// ErrHandshake marks a handshake that went silent: an accepted connection
// that never produced a hello (or auth proof) within HandshakeTimeout. The
// connection is dropped so a stalled or hostile dialer cannot pin the
// accept path.
var ErrHandshake = errors.New("wire: handshake deadline exceeded")

// ErrSealed marks a handshake refused because the peer has already declared
// this process dead. Dead verdicts are final, so a process restarted under a
// reused proc id cannot rejoin a live world — it must wait for the next one.
var ErrSealed = errors.New("wire: session sealed by peer dead verdict")

// FaultHook lets the fault-injection layer perturb the socket transport.
// OnConnSend is consulted before each outbound data-plane frame on a peer
// session, with idx counting data frames sent to that peer (0-based).
// Control-plane and session-internal frames are never faulted.
type FaultHook interface {
	OnConnSend(local, peer int, idx uint64) ConnFault
}

// ConnFault is a network fault verdict: Hang pauses the sender's write pump
// for the duration (missed heartbeats, peer suspects and redials); Drop
// closes the connection before the frame is written (the frame stays in the
// replay buffer and is retransmitted after reconnect).
type ConnFault struct {
	Hang time.Duration
	Drop bool
}

// Stats is a snapshot of the endpoint's transport counters. The report's
// resilience section embeds it, so the JSON names are schema.
type Stats struct {
	HeartbeatsSent uint64 `json:"heartbeats_sent"`
	HeartbeatsRecv uint64 `json:"heartbeats_recv"`
	Reconnects     uint64 `json:"reconnects"`
	PeersLost      uint64 `json:"peers_lost"`
	FramesResent   uint64 `json:"frames_resent"`
	BytesSent      uint64 `json:"bytes_sent"`
	BytesRecv      uint64 `json:"bytes_recv"`
	// AuthRejects counts handshakes refused (or refused to us) over the
	// shared secret, HandshakeTimeouts accepted conns dropped for handshake
	// silence. Zero (omitted) on worlds without a shared secret.
	AuthRejects       uint64 `json:"auth_rejects,omitempty"`
	HandshakeTimeouts uint64 `json:"handshake_timeouts,omitempty"`
}

// Config wires up an Endpoint. Proc indexes Addrs; Addrs holds every
// process's listen address ("unix:/path" or "tcp:host:port"), identical
// across the group. Zero durations take the defaults noted per field.
type Config struct {
	Proc    int
	Addrs   []string
	Cluster string

	// OnFrame delivers each in-order, deduplicated data/control/fence frame.
	// Called from the session's reader goroutine; the frame does not alias
	// any internal buffer and may be retained.
	OnFrame func(peer int, f *Frame)
	// OnPeerDead fires exactly once per peer when the failure detector
	// declares it dead (no contact for PeerDeadAfter despite reconnects).
	OnPeerDead func(peer int)
	// OnReject reports a refused handshake: err is ErrAuth (wrong/missing
	// secret), ErrSealed (peer holds a dead verdict for us), or ErrHandshake
	// (accepted conn went silent before authenticating). peer is -1 when the
	// dialer never identified itself. Called from session goroutines.
	OnReject func(peer int, err error)
	Fault    FaultHook

	// Secret, when non-empty, turns the hello exchange into a mutual
	// HMAC-SHA256 challenge–response: both sides send a nonce in their hello
	// and must present a proof keyed by the per-world secret before any
	// frame is delivered. A peer with a missing or different secret is
	// rejected with ErrAuth — reported, never retried.
	Secret string

	HeartbeatEvery   time.Duration // ping cadence; default 250ms
	PeerDeadAfter    time.Duration // silence budget before a dead verdict; default 3s
	DialTimeout      time.Duration // per dial attempt; default 1s
	WriteTimeout     time.Duration // per frame write; default 2s
	BackoffBase      time.Duration // first redial delay; default 25ms
	BackoffCap       time.Duration // redial delay ceiling; default 500ms
	HandshakeTimeout time.Duration // hello+auth must complete within this; default DialTimeout
}

func (c *Config) fillDefaults() {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.PeerDeadAfter <= 0 {
		c.PeerDeadAfter = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = c.DialTimeout
	}
}

// SplitAddr parses "unix:/path" or "tcp:host:port" into a net network and
// address pair.
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	default:
		return "", "", fmt.Errorf("wire: address %q: want unix:PATH or tcp:HOST:PORT", addr)
	}
}

// Endpoint is one process's presence in the group: a listener plus one
// session per peer. The pair (i, j) keeps a single connection, dialed by the
// higher-numbered process; the dialer owns redial, the acceptor re-adopts
// incoming connections into the existing session, so replay state survives
// any number of reconnects on either side.
type Endpoint struct {
	cfg      Config
	listener net.Listener
	sessions []*session // indexed by peer proc; nil at Proc
	epoch    atomic.Uint32
	closing  atomic.Bool // shutdown entered (guards double Close/Abort)
	closed   atomic.Bool // teardown begun: pumps and monitors stop
	wg       sync.WaitGroup

	heartbeatsSent    atomic.Uint64
	heartbeatsRecv    atomic.Uint64
	reconnects        atomic.Uint64
	peersLost         atomic.Uint64
	framesResent      atomic.Uint64
	bytesSent         atomic.Uint64
	bytesRecv         atomic.Uint64
	authRejects       atomic.Uint64
	handshakeTimeouts atomic.Uint64
}

// outFrame is an encoded, numbered frame parked in the replay buffer until
// acked.
type outFrame struct {
	seq   uint64
	epoch uint32
	buf   []byte
}

type session struct {
	ep     *Endpoint
	peer   int
	dialer bool

	mu        sync.Mutex
	cond      *sync.Cond
	conn      net.Conn
	connected bool // conn non-nil and past the hello exchange
	everConn  bool
	// queue is the replay buffer: every unacked frame, in NetSeq order. The
	// live conn has been handed the first sent of them; the rest wait for
	// the next flush.
	queue       []outFrame
	sent        int
	nextNetSeq  uint64
	lastDeliv   uint64 // highest in-order NetSeq delivered to OnFrame
	peerAcked   uint64
	lastContact time.Time
	dead        bool
	peerClosed  bool // received Bye: graceful exit, not a failure
	authFailed  bool // handshake auth rejected: permanent, stops the dial loop
	dataSent    uint64

	// writeMu serializes writes to conn (flushes vs heartbeats). A flush
	// holds it across taking frames off the queue and writing them, so frames
	// reach the socket in NetSeq order whoever flushes.
	writeMu sync.Mutex
	iov     net.Buffers // flush's scratch, guarded by writeMu
}

// Listen binds cfg.Addrs[cfg.Proc], starts the accept loop, and begins
// dialing lower-numbered peers. It returns immediately; sessions connect in
// the background (Send queues until they do).
func Listen(cfg Config) (*Endpoint, error) {
	cfg.fillDefaults()
	if cfg.Proc < 0 || cfg.Proc >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: proc %d out of range for %d addrs", cfg.Proc, len(cfg.Addrs))
	}
	network, address, err := SplitAddr(cfg.Addrs[cfg.Proc])
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Addrs[cfg.Proc], err)
	}
	ep := &Endpoint{cfg: cfg, listener: ln}
	ep.sessions = make([]*session, len(cfg.Addrs))
	for p := range cfg.Addrs {
		if p == cfg.Proc {
			continue
		}
		s := &session{
			ep:          ep,
			peer:        p,
			dialer:      cfg.Proc > p,
			lastContact: time.Now(),
		}
		s.cond = sync.NewCond(&s.mu)
		ep.sessions[p] = s
		ep.wg.Add(2)
		go s.sendLoop()
		go s.monitor()
		if s.dialer {
			ep.wg.Add(1)
			go s.dialLoop()
		}
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Proc returns this endpoint's process index.
func (ep *Endpoint) Proc() int { return ep.cfg.Proc }

// Procs returns the process-group size.
func (ep *Endpoint) Procs() int { return len(ep.cfg.Addrs) }

// SetEpoch stamps subsequent frames with the new world epoch and discards
// queued frames from older epochs — after a rebuild they address collectives
// that no longer exist, so retransmitting them is pure waste.
func (ep *Endpoint) SetEpoch(e uint32) {
	ep.epoch.Store(e)
	for _, s := range ep.sessions {
		if s == nil {
			continue
		}
		s.mu.Lock()
		live, sent := s.queue[:0], s.sent
		for i, of := range s.queue {
			if of.epoch >= e {
				live = append(live, of)
				continue
			}
			if i < sent {
				s.sent--
			}
		}
		clear(s.queue[len(live):])
		s.queue = live
		s.mu.Unlock()
	}
}

// Stats snapshots the transport counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		HeartbeatsSent:    ep.heartbeatsSent.Load(),
		HeartbeatsRecv:    ep.heartbeatsRecv.Load(),
		Reconnects:        ep.reconnects.Load(),
		PeersLost:         ep.peersLost.Load(),
		FramesResent:      ep.framesResent.Load(),
		BytesSent:         ep.bytesSent.Load(),
		BytesRecv:         ep.bytesRecv.Load(),
		AuthRejects:       ep.authRejects.Load(),
		HandshakeTimeouts: ep.handshakeTimeouts.Load(),
	}
}

// Send queues a data/control/fence frame to peer, assigning its NetSeq. The
// caller stamps Epoch (a fence may legitimately carry an epoch the endpoint's
// replay-pruning counter has not advanced to yet). The frame is retained in
// the replay buffer until the peer acks it, surviving reconnects. Returns
// ErrPeerDead once the peer is declared dead.
func (ep *Endpoint) Send(peer int, f *Frame) error { return ep.SendParts(peer, f, nil) }

// SendParts is Send for a payload given in pieces: f.Payload followed by
// parts, each copied exactly once, into the frame's replay buffer. On a
// connected session the caller then writes whatever is queued itself (see
// flush); the pump only covers the cases where it cannot.
func (ep *Endpoint) SendParts(peer int, f *Frame, parts [][]byte) error {
	s := ep.sessions[peer]
	if s == nil {
		return fmt.Errorf("wire: send to self (proc %d)", peer)
	}
	if f.Type != TypeData && f.Type != TypeControl && f.Type != TypeFence {
		return fmt.Errorf("wire: Send only carries data/control/fence frames, got type %d", f.Type)
	}
	total := headerLen + len(f.Payload)
	for _, p := range parts {
		total += len(p)
	}
	buf := make([]byte, 0, total)
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return fmt.Errorf("%w (proc %d)", ErrPeerDead, peer)
	}
	s.nextNetSeq++
	f.NetSeq = s.nextNetSeq
	s.queue = append(s.queue, outFrame{seq: f.NetSeq, epoch: f.Epoch, buf: appendFrame(buf, f, parts)})
	// The fault hook may sleep, so its frames stay on the pump's goroutine.
	inline := s.connected && ep.cfg.Fault == nil
	if !inline {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if inline {
		s.flush(false)
	}
	return nil
}

// PeerDead reports whether the failure detector has declared peer dead.
func (ep *Endpoint) PeerDead(peer int) bool {
	s := ep.sessions[peer]
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// Close drains queued frames to the peers that can still receive them,
// sends Bye, shuts the listener and all sessions down, and waits for the
// pumps to exit.
func (ep *Endpoint) Close() error { return ep.shutdown(true) }

// Abort tears the endpoint down without the Bye courtesy — the peers see a
// silent disappearance, exactly as if the process had been SIGKILLed. Used
// by the in-test socket worlds to exercise the failure detector without
// spawning real processes.
func (ep *Endpoint) Abort() error { return ep.shutdown(false) }

func (ep *Endpoint) shutdown(sayBye bool) error {
	if !ep.closing.CompareAndSwap(false, true) {
		return nil
	}
	if sayBye {
		// Drain before closing anything: a process can finish its own
		// schedule (it has every peer's contributions) while its final
		// frames still sit in the send queues or ride the wire unacked.
		// Tearing the connections down now would destroy them, and the
		// slower peers would wait forever for contributions that no longer
		// exist anywhere. The pumps and heartbeats are still running here
		// (closed is not yet set), so queued frames flush and the peers'
		// acks retire them; the wait is bounded for peers that are gone.
		ep.drain(time.Now().Add(drainTimeout))
	}
	ep.closed.Store(true)
	if sayBye {
		bye := AppendFrame(nil, &Frame{Type: TypeBye})
		for _, s := range ep.sessions {
			if s == nil {
				continue
			}
			s.mu.Lock()
			c := s.conn
			s.mu.Unlock()
			if c != nil {
				s.writeMu.Lock()
				c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
				c.Write(bye)
				s.writeMu.Unlock()
			}
		}
	}
	ep.listener.Close()
	for _, s := range ep.sessions {
		if s == nil {
			continue
		}
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	ep.wg.Wait()
	return nil
}

// drainTimeout bounds how long Close waits for peers to acknowledge every
// queued frame. The normal cost is one heartbeat interval (acks ride pings);
// the ceiling is only hit when a peer vanished without a verdict yet.
const drainTimeout = 2 * time.Second

// drain waits until every reachable peer has acknowledged every frame this
// endpoint ever queued for it (the replay buffer is empty), or the deadline
// passes. Peers that are dead, said Bye, or never connected cannot make
// progress and are not waited for.
func (ep *Endpoint) drain(deadline time.Time) {
	for time.Now().Before(deadline) {
		busy := false
		for _, s := range ep.sessions {
			if s == nil {
				continue
			}
			s.mu.Lock()
			if len(s.queue) > 0 && s.everConn && !s.dead && !s.peerClosed {
				busy = true
			}
			s.mu.Unlock()
			if busy {
				break
			}
		}
		if !busy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nonceLen is the challenge size each side contributes to the authenticated
// handshake.
const nonceLen = 16

// Reject reasons (first payload byte of a TypeReject frame).
const (
	rejectAuth   uint8 = 1 // wrong or missing shared-secret proof
	rejectSealed uint8 = 2 // acceptor holds a final dead verdict for the dialer
)

// helloPayload encodes proc id, challenge nonce (empty without a secret) and
// cluster id for the handshake frame.
func helloPayload(proc int, nonce []byte, cluster string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(proc))
	b = append(b, uint8(len(nonce)))
	b = append(b, nonce...)
	return append(b, cluster...)
}

func parseHello(f *Frame) (proc int, nonce []byte, cluster string, err error) {
	if f.Type != TypeHello || len(f.Payload) < 5 {
		return 0, nil, "", fmt.Errorf("%w: malformed hello", ErrFrame)
	}
	n := int(f.Payload[4])
	if len(f.Payload) < 5+n {
		return 0, nil, "", fmt.Errorf("%w: malformed hello", ErrFrame)
	}
	return int(binary.LittleEndian.Uint32(f.Payload[:4])),
		f.Payload[5 : 5+n], string(f.Payload[5+n:]), nil
}

// newNonce draws a fresh random handshake challenge.
func newNonce() []byte {
	b := make([]byte, nonceLen)
	if _, err := crand.Read(b); err != nil {
		panic("wire: no entropy for handshake nonce: " + err.Error())
	}
	return b
}

// Handshake proof roles: each side's MAC covers a distinct role byte so an
// attacker cannot reflect one proof back as the other.
const (
	roleDialer   byte = 'D'
	roleAcceptor byte = 'A'
)

// authProof computes the handshake MAC: HMAC-SHA256 over the role, the
// cluster id, both proc ids and both nonces, keyed by the shared secret.
// Every variable-length field is length-prefixed so no two transcripts
// collide.
func authProof(secret, cluster string, dialer, acceptor int, dialerNonce, acceptorNonce []byte, role byte) []byte {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write([]byte{'G', 'W', 'F', '1', role})
	var lenb [4]byte
	writeField := func(b []byte) {
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(b)))
		mac.Write(lenb[:])
		mac.Write(b)
	}
	writeField([]byte(cluster))
	binary.LittleEndian.PutUint32(lenb[:], uint32(dialer))
	mac.Write(lenb[:])
	binary.LittleEndian.PutUint32(lenb[:], uint32(acceptor))
	mac.Write(lenb[:])
	writeField(dialerNonce)
	writeField(acceptorNonce)
	return mac.Sum(nil)
}

// writeReject refuses a handshake with a typed reason; best-effort.
func (ep *Endpoint) writeReject(c net.Conn, reason uint8) {
	c.SetWriteDeadline(time.Now().Add(ep.cfg.WriteTimeout))
	c.Write(AppendFrame(nil, &Frame{Type: TypeReject, Payload: []byte{reason}}))
}

func (ep *Endpoint) reject(peer int, err error) {
	if ep.cfg.OnReject != nil {
		ep.cfg.OnReject(peer, err)
	}
}

// declareDead latches the final dead verdict for the peer (idempotent) and
// fires OnPeerDead exactly once.
func (s *session) declareDead() {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	c := s.conn
	s.cond.Broadcast()
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	s.ep.peersLost.Add(1)
	if s.ep.cfg.OnPeerDead != nil {
		s.ep.cfg.OnPeerDead(s.peer)
	}
}

// acceptLoop adopts incoming connections: the first frame must be a Hello
// naming the peer proc within the handshake deadline; with a shared secret
// the hello must then survive the challenge–response before the conn is
// installed into the session.
func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		c, err := ep.listener.Accept()
		if err != nil {
			return // listener closed
		}
		ep.wg.Add(1)
		go func(c net.Conn) {
			defer ep.wg.Done()
			start := time.Now()
			c.SetReadDeadline(start.Add(ep.cfg.HandshakeTimeout))
			hello, err := ReadFrame(c)
			if err != nil {
				// A connected-but-silent dialer must not pin the accept
				// path: the deadline converts it into a typed, counted
				// rejection. (ReadFrame flattens the timeout, so the
				// elapsed clock tells silence apart from a torn frame.)
				if time.Since(start) >= ep.cfg.HandshakeTimeout {
					ep.handshakeTimeouts.Add(1)
					ep.reject(-1, ErrHandshake)
				}
				c.Close()
				return
			}
			peer, nonce, cluster, err := parseHello(hello)
			if err != nil || cluster != ep.cfg.Cluster ||
				peer < 0 || peer >= len(ep.sessions) || ep.sessions[peer] == nil {
				c.Close()
				return
			}
			ep.sessions[peer].adopt(c, hello, nonce)
		}(c)
	}
}

// jittered draws a uniform sleep from [d/2, d]: survivors of a dead
// supernode all redial the same listener, and a shared deterministic ladder
// would make them thunder-herd it on the same schedule.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int64N(half+1))
}

// authFail latches the permanent auth verdict (reported, not retried): the
// dial loop stops and the failure detector's dead verdict fires so the comm
// layer re-homes the peer's ranks instead of waiting forever.
func (s *session) authFail(err error) {
	s.mu.Lock()
	already := s.authFailed
	s.authFailed = true
	s.mu.Unlock()
	if already {
		return
	}
	s.ep.authRejects.Add(1)
	s.ep.reject(s.peer, err)
	s.declareDead()
}

// dialLoop (dialer side only) keeps the session connected: dial with capped
// exponential backoff plus jitter whenever the conn is down, exchange hellos
// (and auth proofs when the world has a secret), adopt. An auth rejection is
// permanent and exits the loop.
func (s *session) dialLoop() {
	defer s.ep.wg.Done()
	network, address, err := SplitAddr(s.ep.cfg.Addrs[s.peer])
	if err != nil {
		return
	}
	backoff := s.ep.cfg.BackoffBase
	for {
		s.mu.Lock()
		for s.connected && !s.dead && !s.peerClosed && !s.ep.closed.Load() {
			backoff = s.ep.cfg.BackoffBase // healthy conn resets the ladder
			s.cond.Wait()
		}
		stop := s.dead || s.peerClosed || s.authFailed || s.ep.closed.Load()
		s.mu.Unlock()
		if stop {
			return
		}
		c, err := net.DialTimeout(network, address, s.ep.cfg.DialTimeout)
		if err != nil {
			time.Sleep(jittered(backoff))
			backoff *= 2
			if backoff > s.ep.cfg.BackoffCap {
				backoff = s.ep.cfg.BackoffCap
			}
			continue
		}
		// Handshake: our hello first (it identifies us to the acceptor and
		// carries our challenge nonce), then wait for the peer's hello
		// naming its resume point and its own nonce.
		s.mu.Lock()
		acked := s.lastDeliv
		s.mu.Unlock()
		var myNonce []byte
		if s.ep.cfg.Secret != "" {
			myNonce = newNonce()
		}
		my := &Frame{Type: TypeHello, Epoch: s.ep.epoch.Load(), Seq: acked,
			Payload: helloPayload(s.ep.cfg.Proc, myNonce, s.ep.cfg.Cluster)}
		c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
		if _, err := c.Write(AppendFrame(nil, my)); err != nil {
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Now().Add(s.ep.cfg.HandshakeTimeout))
		theirs, err := ReadFrame(c)
		if err != nil {
			c.Close()
			continue
		}
		if theirs.Type == TypeReject {
			c.Close()
			if s.handleReject(theirs) {
				return
			}
			continue
		}
		_, theirNonce, cluster, err := parseHello(theirs)
		if err != nil || cluster != s.ep.cfg.Cluster {
			c.Close()
			continue
		}
		if s.ep.cfg.Secret != "" {
			// Challenge–response: the acceptor proves knowledge of the
			// secret first (it answered our nonce), then we answer its.
			proof, err := ReadFrame(c)
			if err != nil {
				c.Close()
				continue
			}
			if proof.Type == TypeReject {
				c.Close()
				if s.handleReject(proof) {
					return
				}
				continue
			}
			want := authProof(s.ep.cfg.Secret, s.ep.cfg.Cluster,
				s.ep.cfg.Proc, s.peer, myNonce, theirNonce, roleAcceptor)
			if proof.Type != TypeAuth || !hmac.Equal(proof.Payload, want) {
				// A peer that skips or flubs the proof runs a different
				// secret (or none): a config split, not a transient.
				c.Close()
				s.authFail(fmt.Errorf("%w: peer %d presented no valid proof", ErrAuth, s.peer))
				return
			}
			mine := authProof(s.ep.cfg.Secret, s.ep.cfg.Cluster,
				s.ep.cfg.Proc, s.peer, myNonce, theirNonce, roleDialer)
			c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
			if _, err := c.Write(AppendFrame(nil, &Frame{Type: TypeAuth, Payload: mine})); err != nil {
				c.Close()
				continue
			}
		}
		s.install(c, theirs, false)
	}
}

// handleReject reacts to a TypeReject during the dial handshake; reports
// whether the dial loop must stop for good.
func (s *session) handleReject(f *Frame) bool {
	reason := uint8(0)
	if len(f.Payload) > 0 {
		reason = f.Payload[0]
	}
	switch reason {
	case rejectSealed:
		// The peer has latched a dead verdict for our proc id: the world
		// has moved on without us and the verdict is final. Mirror it.
		s.ep.reject(s.peer, fmt.Errorf("%w (proc %d)", ErrSealed, s.peer))
		s.declareDead()
		return true
	default: // rejectAuth and anything unrecognized: do not retry
		s.authFail(fmt.Errorf("%w: rejected by peer %d", ErrAuth, s.peer))
		return true
	}
}

// adopt installs an accepted connection (acceptor side): refuse sealed
// sessions, reply with our own hello, run the challenge–response when the
// world has a secret, then hand off to install.
func (s *session) adopt(c net.Conn, theirHello *Frame, theirNonce []byte) {
	s.mu.Lock()
	acked := s.lastDeliv
	dead := s.dead
	s.mu.Unlock()
	if s.ep.closed.Load() {
		c.Close()
		return
	}
	if dead {
		// A restarted process reusing the proc id must learn quickly that
		// the verdict was final instead of redialing into silence.
		s.ep.writeReject(c, rejectSealed)
		c.Close()
		return
	}
	secret := s.ep.cfg.Secret
	if secret != "" && len(theirNonce) == 0 {
		s.ep.authRejects.Add(1)
		s.ep.reject(s.peer, fmt.Errorf("%w: peer %d sent no challenge", ErrAuth, s.peer))
		s.ep.writeReject(c, rejectAuth)
		c.Close()
		return
	}
	var myNonce []byte
	if secret != "" {
		myNonce = newNonce()
	}
	my := &Frame{Type: TypeHello, Epoch: s.ep.epoch.Load(), Seq: acked,
		Payload: helloPayload(s.ep.cfg.Proc, myNonce, s.ep.cfg.Cluster)}
	c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
	if _, err := c.Write(AppendFrame(nil, my)); err != nil {
		c.Close()
		return
	}
	if secret != "" {
		// Prove ourselves first (answering the dialer's nonce), then hold
		// the dialer to its own proof under the handshake deadline.
		mine := authProof(secret, s.ep.cfg.Cluster, s.peer, s.ep.cfg.Proc,
			theirNonce, myNonce, roleAcceptor)
		c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
		if _, err := c.Write(AppendFrame(nil, &Frame{Type: TypeAuth, Payload: mine})); err != nil {
			c.Close()
			return
		}
		start := time.Now()
		c.SetReadDeadline(start.Add(s.ep.cfg.HandshakeTimeout))
		proof, err := ReadFrame(c)
		if err != nil {
			if time.Since(start) >= s.ep.cfg.HandshakeTimeout {
				s.ep.handshakeTimeouts.Add(1)
				s.ep.reject(s.peer, fmt.Errorf("%w: peer %d went silent before proving", ErrHandshake, s.peer))
			}
			c.Close()
			return
		}
		want := authProof(secret, s.ep.cfg.Cluster, s.peer, s.ep.cfg.Proc,
			theirNonce, myNonce, roleDialer)
		if proof.Type != TypeAuth || !hmac.Equal(proof.Payload, want) {
			s.ep.authRejects.Add(1)
			s.ep.reject(s.peer, fmt.Errorf("%w: peer %d failed challenge", ErrAuth, s.peer))
			s.ep.writeReject(c, rejectAuth)
			c.Close()
			return
		}
	}
	s.install(c, theirHello, true)
}

// install makes c the session's live connection: prune acked replay entries,
// rewind the queue to everything the peer has not seen, spawn the reader.
func (s *session) install(c net.Conn, theirHello *Frame, accepted bool) {
	s.mu.Lock()
	if s.dead || s.ep.closed.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	if s.conn != nil {
		s.conn.Close()
	}
	s.conn = c
	s.connected = true
	s.lastContact = time.Now()
	if s.everConn {
		s.ep.reconnects.Add(1)
	}
	s.everConn = true
	s.ackTo(theirHello.Seq)
	// Session resumption: the new conn has carried nothing, so every unacked
	// frame goes out again, oldest first. The receiver dedupes on NetSeq, so
	// frames that were in flight when the old conn died are retransmitted
	// harmlessly.
	s.ep.framesResent.Add(uint64(s.sent))
	s.sent = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ep.wg.Add(1)
	go s.readLoop(c)
}

// ackTo prunes replay state the peer has confirmed: a prefix of the queue.
// Caller holds s.mu.
func (s *session) ackTo(acked uint64) {
	if acked <= s.peerAcked {
		return
	}
	s.peerAcked = acked
	n := 0
	for n < len(s.queue) && s.queue[n].seq <= acked {
		n++
	}
	live := copy(s.queue, s.queue[n:])
	clear(s.queue[live:])
	s.queue = s.queue[:live]
	s.sent = max(s.sent-n, 0)
}

// flush hands the live conn every queued frame it has not yet carried, as
// one vectored write per round: frames queued by different senders share a
// syscall. Whoever queues a frame on a connected session calls it (blocking
// on writeMu, then re-checking the queue, so no frame is ever left without a
// writer); sendLoop calls it after a (re)connect and whenever a fault hook is
// installed. The hook sees every data frame in order: a Drop verdict on
// frame K writes the frames before K, then closes the conn with K still
// queued for replay; a Hang verdict likewise stops before K and is returned
// for the caller to sleep out, after which flush(true) resumes at K without
// consulting the hook for it again.
func (s *session) flush(verdictTaken bool) (hang time.Duration) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	for {
		s.mu.Lock()
		if !s.connected || s.dead || s.sent == len(s.queue) {
			s.mu.Unlock()
			return 0
		}
		c := s.conn
		var fault ConnFault
		iov, n := s.iov[:0], 0
		for ; s.sent < len(s.queue); s.sent++ {
			buf := s.queue[s.sent].buf
			if hook := s.ep.cfg.Fault; hook != nil && buf[4] == TypeData {
				if !verdictTaken {
					fault = hook.OnConnSend(s.ep.cfg.Proc, s.peer, s.dataSent)
					s.dataSent++
					if fault.Drop || fault.Hang > 0 {
						break
					}
				}
				verdictTaken = false
			}
			iov = append(iov, buf)
			n += len(buf)
		}
		s.mu.Unlock()
		if n > 0 {
			s.iov = iov // WriteTo consumes its receiver; keep the array
			c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
			if _, err := iov.WriteTo(c); err != nil {
				s.teardown(c)
				return 0
			}
			s.ep.bytesSent.Add(uint64(n))
		}
		if fault.Drop {
			s.teardown(c)
			return 0
		}
		if fault.Hang > 0 {
			return fault.Hang
		}
	}
}

// sendLoop is the session's write pump for the frames no sender can write
// itself: those queued while disconnected, the replay after a reconnect, and
// everything when a fault hook is installed (its hangs sleep here, with
// writeMu released so heartbeats keep flowing). A write failure tears the
// conn down (the dial loop or the peer's redial recovers it) and leaves the
// frames in the replay buffer for retransmission.
func (s *session) sendLoop() {
	defer s.ep.wg.Done()
	verdictTaken := false
	for {
		s.mu.Lock()
		for (s.sent == len(s.queue) || !s.connected) && !s.dead && !s.ep.closed.Load() {
			s.cond.Wait()
		}
		stop := s.dead || s.ep.closed.Load()
		s.mu.Unlock()
		if stop {
			return
		}
		hang := s.flush(verdictTaken)
		time.Sleep(hang)
		verdictTaken = hang > 0
	}
}

// teardown drops c if it is still the session's live conn and wakes the
// dial loop.
func (s *session) teardown(c net.Conn) {
	c.Close()
	s.mu.Lock()
	if s.conn == c {
		s.conn = nil
		s.connected = false
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// readLoop drains one connection: heartbeat acks, Bye, and in-order
// deduplicated delivery of numbered frames. The read deadline doubles as the
// per-connection liveness check — a healthy peer pings every HeartbeatEvery,
// so three silent intervals mean the conn is suspect and gets torn down
// (reconnect, not death; the monitor issues dead verdicts on total silence).
func (s *session) readLoop(c net.Conn) {
	defer s.ep.wg.Done()
	br := bufio.NewReaderSize(deadlineReader{c, 3 * s.ep.cfg.HeartbeatEvery}, 64<<10)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			s.teardown(c)
			return
		}
		s.ep.bytesRecv.Add(uint64(headerLen + len(f.Payload)))
		switch f.Type {
		case TypePing:
			s.ep.heartbeatsRecv.Add(1)
			s.mu.Lock()
			s.lastContact = time.Now()
			s.ackTo(f.Seq)
			s.mu.Unlock()
		case TypeBye:
			s.mu.Lock()
			s.peerClosed = true
			s.lastContact = time.Now()
			s.cond.Broadcast()
			s.mu.Unlock()
			s.teardown(c)
			return
		case TypeData, TypeControl, TypeFence:
			s.mu.Lock()
			s.lastContact = time.Now()
			fresh := f.NetSeq > s.lastDeliv
			if fresh {
				s.lastDeliv = f.NetSeq
			}
			s.mu.Unlock()
			if fresh && s.ep.cfg.OnFrame != nil {
				s.ep.cfg.OnFrame(s.peer, f)
			}
		case TypeHello:
			// Mid-stream hello: treat as an ack refresh.
			s.mu.Lock()
			s.lastContact = time.Now()
			s.ackTo(f.Seq)
			s.mu.Unlock()
		case TypeAuth, TypeReject:
			// Handshake frames have no meaning once the session is
			// installed; refresh liveness and move on.
			s.mu.Lock()
			s.lastContact = time.Now()
			s.mu.Unlock()
		}
	}
}

// deadlineReader re-arms the read deadline before every read that reaches
// the socket — the only reads that can block. Frames served from the
// buffered reader above it cost no deadline update.
type deadlineReader struct {
	c       net.Conn
	timeout time.Duration
}

func (d deadlineReader) Read(p []byte) (int, error) {
	d.c.SetReadDeadline(time.Now().Add(d.timeout))
	return d.c.Read(p)
}

// monitor is the session's heartbeat pump and failure detector: ping every
// interval (carrying our delivery ack), and declare the peer dead after
// PeerDeadAfter of total silence — redials included, so a transient drop
// that reconnects in time never escalates to a dead verdict.
func (s *session) monitor() {
	defer s.ep.wg.Done()
	t := time.NewTicker(s.ep.cfg.HeartbeatEvery)
	defer t.Stop()
	for range t.C {
		if s.ep.closed.Load() {
			return
		}
		s.mu.Lock()
		if s.dead {
			s.mu.Unlock()
			return
		}
		// A peer that said Bye stops being pinged (its conn is gone) but the
		// silence clock keeps running: if this process still needs its
		// contributions — the peer exited early, or Close raced a straggler
		// past the drain window — the verdict below converts the graceful
		// exit into the same dead-peer signal a crash would have produced,
		// instead of an unbounded wait.
		silent := time.Since(s.lastContact)
		c := s.conn
		acked := s.lastDeliv
		if silent > s.ep.cfg.PeerDeadAfter {
			s.dead = true
			s.cond.Broadcast()
			s.mu.Unlock()
			if c != nil {
				c.Close()
			}
			s.ep.peersLost.Add(1)
			if s.ep.cfg.OnPeerDead != nil {
				s.ep.cfg.OnPeerDead(s.peer)
			}
			return
		}
		s.mu.Unlock()
		if c == nil {
			continue
		}
		ping := AppendFrame(nil, &Frame{Type: TypePing, Epoch: s.ep.epoch.Load(), Seq: acked})
		s.writeMu.Lock()
		c.SetWriteDeadline(time.Now().Add(s.ep.cfg.WriteTimeout))
		_, err := c.Write(ping)
		s.writeMu.Unlock()
		if err != nil {
			s.teardown(c)
			continue
		}
		s.ep.heartbeatsSent.Add(1)
	}
}
