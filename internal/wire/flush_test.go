package wire

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// calm stretches the heartbeat so a scheduler stall under -race on a small
// host cannot look like a silent peer: these tests assert Reconnects == 0.
func calm(_ int, cfg *Config) {
	cfg.HeartbeatEvery = 100 * time.Millisecond
	cfg.PeerDeadAfter = 10 * time.Second
}

// stamped builds a payload that names its own frame, so no other frame's
// bytes can pass for it.
func stamped(comm uint32, seq uint64, size int) []byte {
	b := make([]byte, size)
	for i := 0; i+12 <= size; i += 12 {
		binary.LittleEndian.PutUint32(b[i:], comm)
		binary.LittleEndian.PutUint64(b[i+4:], seq)
	}
	return b
}

// TestConcurrentSendersShareTheSocketInOrder: every sender on a connected
// session writes the queue itself, so eight of them race for writeMu. Frames
// must still reach the socket in NetSeq order — the receiver drops anything
// at or below the last delivered number — and exactly once.
func TestConcurrentSendersShareTheSocketInOrder(t *testing.T) {
	const senders, each = 8, 2000
	eps, sinks := startGroup(t, 2, calm)
	Must0(eps[1].Send(0, &Frame{Type: TypeControl, Comm: senders})) // connect first
	sinks[0].waitFrames(t, 1, 1, 5*time.Second)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				f := &Frame{Type: TypeData, Comm: uint32(g), Seq: uint64(k)}
				if err := eps[1].SendParts(0, f, [][]byte{stamped(uint32(g), uint64(k), 24+k%512)}); err != nil {
					t.Errorf("sender %d frame %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := sinks[0].waitFrames(t, 1, 1+senders*each, 30*time.Second)
	if len(got) != 1+senders*each {
		t.Fatalf("delivered %d frames, want %d", len(got), 1+senders*each)
	}
	next := make([]uint64, senders)
	for i, f := range got[1:] {
		if f.NetSeq <= got[i].NetSeq {
			t.Fatalf("frame %d: NetSeq %d after %d", i+1, f.NetSeq, got[i].NetSeq)
		}
		if f.Seq != next[f.Comm] {
			t.Fatalf("sender %d: got frame %d, want %d (lost or duplicated)", f.Comm, f.Seq, next[f.Comm])
		}
		next[f.Comm]++
		if !bytes.Equal(f.Payload, stamped(f.Comm, f.Seq, 24+int(f.Seq)%512)) {
			t.Fatalf("sender %d frame %d: payload is not the one sent", f.Comm, f.Seq)
		}
	}
	for p, ep := range eps {
		if s := ep.Stats(); s.Reconnects != 0 || s.FramesResent != 0 {
			t.Fatalf("proc %d: %d reconnects, %d frames resent on a healthy link", p, s.Reconnects, s.FramesResent)
		}
	}
}

// TestIdleSessionKeepsItsConnection: the read deadline is re-armed by every
// read that reaches the socket, so a session that carries nothing but
// heartbeats for many read timeouts is never suspected, and the burst that
// follows arrives on the original connection. A host that stalls the whole
// process for a read timeout (60 ms here) tears the link down legitimately,
// so one clean attempt in three passes; a deadline that is not re-armed fails
// every attempt.
func TestIdleSessionKeepsItsConnection(t *testing.T) {
	var reconnects uint64
	for attempt := 0; attempt < 3; attempt++ {
		if reconnects = idleThenBurst(t); reconnects == 0 {
			return
		}
	}
	t.Fatalf("idle session was torn down in every attempt (%d time(s) in the last)", reconnects)
}

func idleThenBurst(t *testing.T) (reconnects uint64) {
	eps, sinks := startGroup(t, 2, func(_ int, cfg *Config) {
		cfg.HeartbeatEvery = 20 * time.Millisecond
		cfg.PeerDeadAfter = 10 * time.Second
	})
	Must0(eps[0].Send(1, &Frame{Type: TypeData}))
	sinks[1].waitFrames(t, 0, 1, 5*time.Second)
	time.Sleep(time.Second)
	const burst = 200
	for k := 1; k <= burst; k++ {
		Must0(eps[0].Send(1, &Frame{Type: TypeData, Seq: uint64(k), Payload: stamped(0, uint64(k), 600)}))
	}
	got := sinks[1].waitFrames(t, 0, 1+burst, 5*time.Second)
	for k, f := range got {
		if f.Seq != uint64(k) {
			t.Fatalf("frame %d: got seq %d", k, f.Seq)
		}
	}
	for _, ep := range eps {
		reconnects += ep.Stats().Reconnects
	}
	return reconnects
}

// hangThenDrop hangs the pump on the first data frame — long enough for the
// test to queue everything behind it, so the next flush is one coalesced
// batch — and drops the connection at frame dropAt, in the middle of it.
type hangThenDrop struct {
	dropAt uint64
	drops  atomic.Uint64
}

func (h *hangThenDrop) OnConnSend(_, _ int, idx uint64) ConnFault {
	switch {
	case idx == 0:
		return ConnFault{Hang: 50 * time.Millisecond}
	case idx == h.dropAt && h.drops.CompareAndSwap(0, 1):
		return ConnFault{Drop: true}
	}
	return ConnFault{}
}

// TestDropInsideCoalescedBatch: a Drop verdict on frame K of a batch writes
// the frames before K, closes the connection with K unwritten, and the replay
// after the redial delivers every frame exactly once, byte for byte, while
// fresh sends keep joining the queue behind it: a replay that resent the
// wrong buffer would show up as a foreign payload or a CRC teardown.
func TestDropInsideCoalescedBatch(t *testing.T) {
	const first, second = 40, 200
	hook := &hangThenDrop{dropAt: first / 2}
	eps, sinks := startGroup(t, 2, func(proc int, cfg *Config) {
		calm(proc, cfg)
		if proc == 1 {
			cfg.Fault = hook
		}
	})
	send := func(k int) {
		Must0(eps[1].SendParts(0, &Frame{Type: TypeData, Seq: uint64(k)}, [][]byte{stamped(1, uint64(k), 300)}))
	}
	for k := 0; k < first; k++ {
		send(k)
	}
	for k := first; k < first+second; k++ {
		send(k)
		if k%20 == 0 {
			time.Sleep(time.Millisecond) // straddle the reconnect
		}
	}
	got := sinks[0].waitFrames(t, 1, first+second, 10*time.Second)
	if len(got) != first+second {
		t.Fatalf("delivered %d frames, want %d", len(got), first+second)
	}
	for k, f := range got {
		if f.Seq != uint64(k) || !bytes.Equal(f.Payload, stamped(1, uint64(k), 300)) {
			t.Fatalf("frame %d: got seq %d with a payload that is not the one sent", k, f.Seq)
		}
	}
	if hook.drops.Load() != 1 {
		t.Fatal("drop fault never fired")
	}
	if n := eps[1].Stats().Reconnects; n != 1 {
		t.Fatalf("%d reconnects, want exactly 1 (a corrupt replay tears the link down again)", n)
	}
}

// TestLastFrameBeforeQuietIsWritten: a sender that finds writeMu held — here
// by the heartbeat monitor, ticking every few milliseconds — must still get
// its frame written without waiting for another Send to come along. Each
// frame is sent alone and awaited before the next.
func TestLastFrameBeforeQuietIsWritten(t *testing.T) {
	eps, sinks := startGroup(t, 2, func(_ int, cfg *Config) {
		cfg.HeartbeatEvery = 2 * time.Millisecond
		cfg.PeerDeadAfter = 10 * time.Second
	})
	for k := 1; k <= 400; k++ {
		Must0(eps[0].Send(1, &Frame{Type: TypeData, Seq: uint64(k)}))
		sinks[1].waitFrames(t, 0, k, 2*time.Second)
	}
}

// TestSetEpochKeepsTheQueueConsistent: dropping stale-epoch frames that the
// live conn has already carried must leave the written/unwritten boundary on
// the right frame, or the next epoch's first frames are never flushed.
func TestSetEpochKeepsTheQueueConsistent(t *testing.T) {
	eps, sinks := startGroup(t, 2, func(_ int, cfg *Config) {
		cfg.HeartbeatEvery = 200 * time.Millisecond // no ack before SetEpoch
		cfg.PeerDeadAfter = 10 * time.Second
	})
	for k := 0; k < 3; k++ {
		Must0(eps[0].Send(1, &Frame{Type: TypeData, Seq: uint64(k)}))
	}
	sinks[1].waitFrames(t, 0, 3, 5*time.Second)
	eps[0].SetEpoch(1)
	Must0(eps[0].Send(1, &Frame{Type: TypeData, Epoch: 1, Seq: 3}))
	if got := sinks[1].waitFrames(t, 0, 4, 5*time.Second); got[3].Epoch != 1 || got[3].Seq != 3 {
		t.Fatalf("frame after SetEpoch: %+v", got[3])
	}
}
