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
