// Package cluster is the distributed master–leader–worker runtime: it
// lifts the paper's three-level MPI hierarchy (§V-B, Fig. 4) out of a
// single process and onto plain TCP. A coordinator owns fragment
// assignment with timed leases: a lease that expires, or whose worker dies,
// puts its task back on the queue, and the first result for a live task
// wins, from whichever worker sends it. Worker daemons execute fragments
// with the in-process engine, one per slot, and stream results back over a
// versioned, length-prefixed binary RPC protocol that reuses
// internal/store's CRC-32C codec discipline (magic, version, CRC per
// frame). The content-addressed store becomes a tiered cache — coordinator
// store, worker-local disk, recompute — so rigid-copy dedup works
// cluster-wide, and internal/faults-driven chaos (dropped frames, corrupted
// frames, severed connections, worker death) is injectable at the
// transport and survivable: bounded retry, lease expiry plus reassignment,
// and dropping every result after the first keep results bit-identical to
// a single-process run.
package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout (all integers little-endian), mirroring the store codec's
// discipline — magic, version, length, CRC on every frame:
//
//	[0:4)       magic "QFCL"
//	[4:6)       u16 frame-codec version
//	[6:7)       u8  message type
//	[7:11)      u32 payload length N
//	[11:11+N)   payload
//	[11+N:15+N) u32 CRC-32C (Castagnoli) over bytes [0:11+N)
//
// The frame-codec version covers the frame layout itself (like the store
// codec's record version); the application protocol version rides inside
// the HELLO payload and is negotiated at handshake (ErrVersionSkew).
const (
	frameMagic   = "QFCL"
	FrameVersion = 1
	// ProtoVersion is the application protocol version carried in HELLO.
	// A peer advertising a different version is rejected at handshake.
	// Version 2: JOB and LEASE carry their options as a length-prefixed
	// hessian.JobOptions.AppendPhysics block (version 1 had its own layout).
	// Version 3: that block is one byte shorter (the DFPT strength-reduction flag gone).
	// Version 4: it is 24 bytes shorter (DFPT.MaxIter, Tol and Mixing gone).
	// Version 5: HEARTBEAT and BYE carry an empty payload (no in-flight count, no reason).
	// Version 6: LEASE, RESULT and TASK_FAIL lose their epoch; STEAL, FETCH,
	// FETCH_OK and FETCH_MISS are gone and the later types renumbered
	// (HELLO, WELCOME and REJECT keep their codes, so an older peer is still
	// rejected cleanly); JOB_DONE loses its fetch-hit count.
	ProtoVersion = 6

	headerSize  = 11
	trailerSize = 4

	// DefaultMaxPayload bounds a frame's payload. The largest legitimate
	// payload is a RESULT blob for a big capped fragment (a few MB); 64
	// MiB leaves ample headroom while keeping a corrupt length field from
	// provoking a giant allocation.
	DefaultMaxPayload = 64 << 20
)

// Typed protocol errors, mirroring internal/store's ErrCorrupt/ErrVersion
// discipline.
var (
	// ErrBadFrame marks a frame that fails structural validation: wrong
	// magic, truncated header or body, or CRC mismatch. A connection that
	// produces one is dropped — the stream offset can no longer be
	// trusted.
	ErrBadFrame = errors.New("cluster: corrupt frame")
	// ErrFrameVersion marks a frame whose codec version this build does
	// not understand.
	ErrFrameVersion = errors.New("cluster: unsupported frame version")
	// ErrVersionSkew marks a handshake whose application protocol version
	// does not match ours; the peer is rejected cleanly (REJECT frame),
	// never hung up on silently.
	ErrVersionSkew = errors.New("cluster: protocol version mismatch")
	// ErrFrameTooLarge marks a frame whose declared payload exceeds the
	// transport's size cap.
	ErrFrameTooLarge = errors.New("cluster: frame exceeds payload cap")
	// ErrProtocol marks a structurally valid frame that is illegal in the
	// current conversation state (bad payload encoding, unexpected type).
	ErrProtocol = errors.New("cluster: protocol violation")
	// ErrRejected wraps the reason string of a REJECT frame received at
	// handshake.
	ErrRejected = errors.New("cluster: handshake rejected")
)

// MsgType enumerates the protocol's message types.
type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgWelcome
	MsgReject
	MsgJob
	MsgFrag
	MsgLease
	MsgResult
	MsgServe
	MsgHeartbeat
	MsgTaskFail
	MsgJobDone
	MsgStats
	MsgStatsOK
	MsgBye

	msgMax = MsgBye
)

var msgNames = [...]string{
	MsgHello:     "HELLO",
	MsgWelcome:   "WELCOME",
	MsgReject:    "REJECT",
	MsgJob:       "JOB",
	MsgFrag:      "FRAG",
	MsgLease:     "LEASE",
	MsgResult:    "RESULT",
	MsgServe:     "SERVE",
	MsgHeartbeat: "HEARTBEAT",
	MsgTaskFail:  "TASK_FAIL",
	MsgJobDone:   "JOB_DONE",
	MsgStats:     "STATS",
	MsgStatsOK:   "STATS_OK",
	MsgBye:       "BYE",
}

// String returns the wire name of the message type (used as the {rpc=...}
// metric label).
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("MSG_%d", uint8(t))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// EncodeFrame serializes one frame: header, payload, CRC trailer.
func EncodeFrame(t MsgType, payload []byte) []byte {
	b := make([]byte, 0, headerSize+len(payload)+trailerSize)
	b = append(b, frameMagic...)
	b = appendU16(b, FrameVersion)
	b = append(b, byte(t))
	b = appendU32(b, uint32(len(payload)))
	b = append(b, payload...)
	return appendU32(b, crc32.Checksum(b, castagnoli))
}

// ReadFrame reads exactly one frame from the stream. maxPayload bounds the
// declared payload length (≤ 0 selects DefaultMaxPayload). It returns the
// decoded frame and the total bytes consumed. Any framing error poisons
// the stream: the caller must drop the connection.
func ReadFrame(r io.Reader, maxPayload int) (Frame, int, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if string(hdr[:4]) != frameMagic {
		return Frame{}, headerSize, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if v := readU16(hdr[4:]); v != FrameVersion {
		return Frame{}, headerSize, fmt.Errorf("%w: frame version %d, want %d", ErrFrameVersion, v, FrameVersion)
	}
	n := int(readU32(hdr[7:]))
	if n > maxPayload {
		return Frame{}, headerSize, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, n, maxPayload)
	}
	rest := make([]byte, n+trailerSize)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, headerSize, fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	crcIn := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, rest[:n])
	if got := readU32(rest[n:]); got != crcIn {
		return Frame{}, headerSize + n + trailerSize, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	t := MsgType(hdr[6])
	if t == 0 || t > msgMax {
		return Frame{}, headerSize + n + trailerSize, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, uint8(t))
	}
	return Frame{Type: t, Payload: rest[:n:n]}, headerSize + n + trailerSize, nil
}

// Little-endian primitive helpers (the store codec's discipline; its
// helpers are unexported, so the cluster wire format carries its own).

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

func readU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(readU32(b)) | uint64(readU32(b[4:]))<<32
}
