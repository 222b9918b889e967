// Package wire is the cross-process transport under the comm layer's socket
// backend: length-prefixed CRC-framed messages over TCP or Unix sockets, one
// endpoint per OS process, full-mesh peer sessions with heartbeat-based
// failure detection, per-connection read/write deadlines, and reconnect with
// capped exponential backoff plus session resumption (a replay buffer keyed
// by a per-session sequence number), so a transient connection drop degrades
// to a retransmit instead of a lost contribution.
//
// The frame codec is canonical: one byte sequence per frame, little-endian
// fixed-width header, CRC-32C over header and payload. Decoding is strict —
// torn, truncated, oversized or corrupted frames are rejected with typed
// errors, never silently repaired (FuzzWireFrame locks this in).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types. Data and Control carry comm-layer collective contributions;
// the remaining types are session-internal (handshake, liveness, flow).
const (
	// TypeData is a fault-interceptable data-plane collective contribution.
	TypeData uint8 = iota
	// TypeControl is a control-plane contribution (votes, fences): never
	// fault-injected, never dropped by the network fault hooks.
	TypeControl
	// TypeHello opens or resumes a session: payload carries the cluster ID;
	// Seq carries the highest NetSeq the sender has delivered, so the peer
	// retransmits everything after it.
	TypeHello
	// TypePing is a heartbeat; Seq acknowledges the highest delivered NetSeq
	// so the peer can prune its replay buffer.
	TypePing
	// TypeFence is a process-level barrier marker (world epoch transitions).
	TypeFence
	// TypeBye announces a graceful close; the peer must not treat the
	// connection loss as a failure.
	TypeBye
	// TypeAuth carries an HMAC-SHA256 handshake proof (see Endpoint: the
	// hello exchange becomes a mutual challenge–response when the world has
	// a shared secret). Payload is the raw MAC.
	TypeAuth
	// TypeReject refuses a handshake before the session is installed. The
	// payload's first byte is the reason (rejectAuth, rejectSealed); the
	// receiver must not retry the handshake for rejectAuth.
	TypeReject
	numFrameTypes
)

// Flag bits carried by data/control contributions (the fault-envelope
// metadata of the in-process transport, made explicit on the wire).
const (
	// FlagWithheld marks a stalled contribution: the rank arrived at the
	// rendezvous but posted no payload.
	FlagWithheld uint8 = 1 << iota
	// FlagFailed marks a contribution that failed outright.
	FlagFailed
	// FlagDead marks a fail-stopped rank's zombie contribution.
	FlagDead
)

// Frame is one wire message. Comm/Seq/Rank address a collective contribution
// (communicator id, per-communicator collective number, sender's member
// index); Epoch and Gen pin it to a world epoch and a run generation so
// stale frames from a previous epoch or a previous World.Run cannot alias a
// live collective. NetSeq is the per-session delivery number used for
// resume-after-reconnect dedup (0 on session-internal frames).
type Frame struct {
	Type    uint8
	Flags   uint8
	Epoch   uint32
	Gen     uint32
	Comm    uint32
	Seq     uint64
	Rank    int32
	NetSeq  uint64
	Payload []byte
}

// Header layout, after the 4-byte magic:
//
//	offset  size  field
//	     0     4  magic "GWF1"
//	     4     1  type
//	     5     1  flags
//	     6     2  reserved (must be zero)
//	     8     4  epoch
//	    12     4  gen
//	    16     4  comm
//	    20     8  seq
//	    28     4  rank (two's complement)
//	    32     8  netseq
//	    40     4  payload length
//	    44     4  CRC-32C over bytes [0, 44) and the payload
//	    48     …  payload
const (
	frameMagic = "GWF1"
	headerLen  = 48
	crcOff     = 44
	// MaxPayload bounds a single frame. Collective payloads at bench scales
	// are a few MB at most; anything bigger is a protocol error, not data.
	MaxPayload = 1 << 28
)

// Typed decode errors. All wrap ErrFrame so callers can match the class.
var (
	// ErrFrame is the class sentinel for malformed frames.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrBadMagic marks a frame that does not open with the magic — a
	// desynchronized or foreign stream.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrFrame)
	// ErrShortFrame marks a frame truncated below its declared length.
	ErrShortFrame = fmt.Errorf("%w: truncated", ErrFrame)
	// ErrFrameTooLarge marks a declared payload length over MaxPayload.
	ErrFrameTooLarge = fmt.Errorf("%w: payload too large", ErrFrame)
	// ErrBadChecksum marks a CRC mismatch: the frame was torn or corrupted
	// in transit.
	ErrBadChecksum = fmt.Errorf("%w: checksum mismatch", ErrFrame)
	// ErrBadType marks an unknown frame type or nonzero reserved bytes.
	ErrBadType = fmt.Errorf("%w: unknown type", ErrFrame)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends f's canonical encoding to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f *Frame) []byte { return appendFrame(dst, f, nil) }

// appendFrame is AppendFrame for a payload given in pieces: f.Payload
// followed by parts, each copied once, straight into the frame.
func appendFrame(dst []byte, f *Frame, parts [][]byte) []byte {
	plen := len(f.Payload)
	for _, p := range parts {
		plen += len(p)
	}
	if plen > MaxPayload {
		panic(fmt.Sprintf("wire: frame payload %d exceeds MaxPayload", plen))
	}
	base := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, f.Type, f.Flags, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, f.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, f.Comm)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Rank))
	dst = binary.LittleEndian.AppendUint64(dst, f.NetSeq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	dst = append(dst, 0, 0, 0, 0) // CRC, patched below
	dst = append(dst, f.Payload...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	crc := crc32.Update(0, castagnoli, dst[base:base+crcOff])
	crc = crc32.Update(crc, castagnoli, dst[base+headerLen:])
	binary.LittleEndian.PutUint32(dst[base+crcOff:], crc)
	return dst
}

// DecodeFrame parses one frame from the front of b, returning the frame and
// the number of bytes consumed. The returned payload aliases b. A short
// buffer returns ErrShortFrame (read more and retry); every other error is
// permanent for that stream position.
func DecodeFrame(b []byte) (*Frame, int, error) {
	if len(b) < headerLen {
		return nil, 0, ErrShortFrame
	}
	if string(b[:4]) != frameMagic {
		return nil, 0, ErrBadMagic
	}
	if b[4] >= numFrameTypes {
		return nil, 0, fmt.Errorf("%w %d", ErrBadType, b[4])
	}
	if b[6] != 0 || b[7] != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrBadType)
	}
	plen := binary.LittleEndian.Uint32(b[40:44])
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, plen)
	}
	total := headerLen + int(plen)
	if len(b) < total {
		return nil, 0, ErrShortFrame
	}
	want := binary.LittleEndian.Uint32(b[crcOff : crcOff+4])
	crc := crc32.Update(0, castagnoli, b[:crcOff])
	crc = crc32.Update(crc, castagnoli, b[headerLen:total])
	if crc != want {
		return nil, 0, ErrBadChecksum
	}
	f := &Frame{
		Type:   b[4],
		Flags:  b[5],
		Epoch:  binary.LittleEndian.Uint32(b[8:12]),
		Gen:    binary.LittleEndian.Uint32(b[12:16]),
		Comm:   binary.LittleEndian.Uint32(b[16:20]),
		Seq:    binary.LittleEndian.Uint64(b[20:28]),
		Rank:   int32(binary.LittleEndian.Uint32(b[28:32])),
		NetSeq: binary.LittleEndian.Uint64(b[32:40]),
	}
	if plen > 0 {
		f.Payload = b[headerLen:total]
	}
	return f, total, nil
}

// ReadFrame reads exactly one frame from r, allocating its payload (the
// result does not alias any reader buffer). A clean EOF before the first
// byte returns io.EOF; EOF mid-frame returns ErrShortFrame.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrShortFrame
	}
	plen := binary.LittleEndian.Uint32(hdr[40:44])
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, plen)
	}
	buf := make([]byte, headerLen+int(plen))
	copy(buf, hdr[:])
	if plen > 0 {
		if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
			return nil, ErrShortFrame
		}
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}
