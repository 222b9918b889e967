package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SparseUpdate is one destination-addressed record of the sparse tail
// protocol: instead of a dense per-destination buffer list, a sender ships a
// flat stream of (destination, tag, offset, value) triples and every receiver
// filters out its own. Dst is a member index within the communicator the
// exchange runs on; Tag is a caller-defined stream label (the engine uses
// component ids so one batched exchange can carry several kernels' payloads);
// Off is a destination-local address (an L index, a hub id, or an original
// vertex id depending on the tag); Val is the payload (a parent vertex id).
type SparseUpdate struct {
	Dst int32
	Tag int32
	Off int64
	Val int64
}

// Frame layout: 4-byte magic, little-endian uint32 record count, then
// fixed-width 24-byte records (Dst, Tag as uint32; Off, Val as uint64).
const (
	sparseMagic     = "SPU1"
	sparseHeaderLen = 8
	sparseRecordLen = 24
)

// ErrSparseFrame marks a malformed sparse-update frame: bad magic, a
// truncated header or record section, or trailing bytes. Decoding is strict —
// a frame either parses back to exactly what was encoded or is rejected.
var ErrSparseFrame = errors.New("comm: malformed sparse-update frame")

// EncodeSparseUpdates appends the framed encoding of ups to dst and returns
// the extended slice. The encoding is canonical: one byte sequence per update
// list.
func EncodeSparseUpdates(dst []byte, ups []SparseUpdate) []byte {
	n := len(dst)
	need := sparseHeaderLen + sparseRecordLen*len(ups)
	if cap(dst)-n < need {
		grown := make([]byte, n, n+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, sparseMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ups)))
	for _, u := range ups {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Dst))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Tag))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(u.Off))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(u.Val))
	}
	return dst
}

// DecodeSparseUpdates parses one frame produced by EncodeSparseUpdates. It
// rejects truncated frames, trailing bytes, bad magic, and record counts that
// disagree with the frame length, all as errors wrapping ErrSparseFrame.
func DecodeSparseUpdates(frame []byte) ([]SparseUpdate, error) {
	if len(frame) < sparseHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte frame is shorter than the %d-byte header",
			ErrSparseFrame, len(frame), sparseHeaderLen)
	}
	if string(frame[:4]) != sparseMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrSparseFrame, frame[:4], sparseMagic)
	}
	count := binary.LittleEndian.Uint32(frame[4:8])
	want := uint64(sparseHeaderLen) + uint64(count)*sparseRecordLen
	if uint64(len(frame)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d records, want %d",
			ErrSparseFrame, len(frame), count, want)
	}
	if count == 0 {
		return nil, nil
	}
	ups := make([]SparseUpdate, count)
	for i := range ups {
		rec := frame[sparseHeaderLen+i*sparseRecordLen:]
		ups[i] = SparseUpdate{
			Dst: int32(binary.LittleEndian.Uint32(rec[0:4])),
			Tag: int32(binary.LittleEndian.Uint32(rec[4:8])),
			Off: int64(binary.LittleEndian.Uint64(rec[8:16])),
			Val: int64(binary.LittleEndian.Uint64(rec[16:24])),
		}
	}
	return ups, nil
}

// AllgatherSparse is the tail-iteration exchange: every member posts one
// encoded frame of destination-addressed updates and every member receives
// all frames, keeping only the records addressed to it. The result is shaped
// exactly like Alltoallv's — out[j] holds member j's updates for the caller,
// in j's send order — so a caller can substitute it for a dense exchange and
// apply the received messages in an identical order. For the tiny frontiers
// of tail iterations one small allgathered frame replaces k dense buffers,
// most of them empty.
//
// The frame rides the same contribution protocol as every other collective,
// so the fault transport's delay/stall/corrupt/fail/kill actions all apply;
// corruption is caught by the envelope checksum before any decode, which is
// why a frame that fails to decode after a clean verify is a panic (protocol
// bug), not an error. Updates with Dst outside [0, Size()) panic on the
// sender — they could otherwise silently vanish.
func AllgatherSparse(c *Comm, ups []SparseUpdate) ([][]SparseUpdate, error) {
	k := c.Size()
	for _, u := range ups {
		if int(u.Dst) < 0 || int(u.Dst) >= k {
			panic(fmt.Sprintf("comm: AllgatherSparse update Dst %d out of [0,%d)", u.Dst, k))
		}
	}
	seq := c.nextSeq()
	tok := c.traceEnter()
	c.rank.Stats.Calls[KindAllgatherSparse]++
	frame := EncodeSparseUpdates(nil, ups)
	for j := 0; j < k; j++ {
		if j != c.me {
			c.account(KindAllgatherSparse, j, int64(len(frame)))
		}
	}
	contribute1(c, KindAllgatherSparse, seq, frame)
	c.rendezvous(seq)
	err := c.verify(KindAllgatherSparse)
	var out [][]SparseUpdate
	if err == nil {
		out = make([][]SparseUpdate, k)
		for j := 0; j < k; j++ {
			posted, derr := DecodeSparseUpdates(slotSlice[byte](c, j))
			if derr != nil {
				panic(fmt.Sprintf("comm: AllgatherSparse: member %d posted a bad frame past checksum verification: %v", j, derr))
			}
			for _, u := range posted {
				if int(u.Dst) == c.me {
					out[j] = append(out[j], u)
				}
			}
		}
	}
	c.complete(seq)
	c.traceExit("allgather_sparse", tok, err)
	return out, err
}
