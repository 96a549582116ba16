package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"qframan/internal/hessian"
)

func TestFrameRoundtripAllTypes(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xA5}, 1000)}
	for mt := MsgType(1); mt <= msgMax; mt++ {
		for _, p := range payloads {
			b := EncodeFrame(mt, p)
			f, n, err := ReadFrame(bytes.NewReader(b), 0)
			if err != nil {
				t.Fatalf("%s payload %d: %v", mt, len(p), err)
			}
			if n != len(b) || f.Type != mt || !bytes.Equal(f.Payload, p) {
				t.Fatalf("%s payload %d: roundtrip mismatch (%d of %d bytes read)", mt, len(p), n, len(b))
			}
		}
	}
}

// TestDecodeFrameRejectsDamage: the stream reader refuses every damaged
// frame, and a buffer holding one frame plus trailing bytes is not consumed
// whole.
func TestDecodeFrameRejectsDamage(t *testing.T) {
	valid := EncodeFrame(MsgSteal, Steal{Task: 3, Epoch: 1}.encode())

	// want nil: the frame parses but leaves bytes unread.
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, io.EOF},
		{"truncated header", func(b []byte) []byte { return b[:7] }, io.ErrUnexpectedEOF},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }, ErrBadFrame},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadFrame},
		{"frame version skew", func(b []byte) []byte { b[4] = 2; return b }, ErrFrameVersion},
		{"payload bit flip", func(b []byte) []byte { b[headerSize] ^= 0x80; return b }, ErrBadFrame},
		{"header bit flip", func(b []byte) []byte { b[6] ^= 0x01; return b }, ErrBadFrame},
		{"CRC bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrBadFrame},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }, nil},
		{"giant declared length", func(b []byte) []byte {
			b[7], b[8], b[9], b[10] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), valid...))
		_, n, err := ReadFrame(bytes.NewReader(b), 0)
		if tc.want == nil {
			if err != nil || n == len(b) {
				t.Errorf("%s: read %d of %d bytes (err %v), want one frame and bytes left", tc.name, n, len(b), err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A structurally perfect frame with an out-of-range message type is
	// corrupt, not a future protocol extension: type is covered by the CRC.
	bad := EncodeFrame(msgMax+1, nil)
	if _, _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown type: got %v, want ErrBadFrame", err)
	}
}

func TestReadFramePayloadCap(t *testing.T) {
	b := EncodeFrame(MsgResult, make([]byte, 4096))
	if _, _, err := ReadFrame(bytes.NewReader(b), 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if f, _, err := ReadFrame(bytes.NewReader(b), 4096); err != nil || len(f.Payload) != 4096 {
		t.Fatalf("within cap: %v", err)
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	b := EncodeFrame(MsgServe, []byte("spectrum"))
	for cut := 1; cut < len(b); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(b[:cut]), 0)
		if err == nil {
			t.Fatalf("accepted a stream truncated at %d/%d bytes", cut, len(b))
		}
		if cut < headerSize {
			// Header truncation surfaces as a raw io error so stream
			// consumers can tell clean EOF from a poisoned stream.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: got %v, want io EOF family", cut, err)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut %d: got %v, want ErrBadFrame", cut, err)
		}
	}
}

// FuzzDecodeClusterFrame is the protocol's structural fuzz target on the
// stream reader every connection runs: no input may panic or over-allocate,
// and any frame ReadFrame accepts must re-encode to exactly the bytes it
// consumed (the frame layout is canonical).
func FuzzDecodeClusterFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeFrame(MsgHello, Hello{Role: RoleWorker, Proto: ProtoVersion, Slots: 4, Name: "w0"}.encode()))
	f.Add(EncodeFrame(MsgResult, Result{Task: 7, Epoch: 2, Tier: TierCompute, Blob: []byte("blob")}.encode()))
	f.Add(EncodeFrame(MsgJobDone, JobDone{Job: 1, Computed: 9}.encode()))
	// The two frames that carry job options (protocol 2: a length-prefixed
	// physics block).
	els, pos := testGeometry()
	f.Add(EncodeFrame(MsgJob, Job{Job: 1, NFrags: 3, Opt: hessian.DefaultJobOptions()}.encode()))
	f.Add(EncodeFrame(MsgLease, Lease{Task: 7, Epoch: 2, Key: testKey(), Opt: hessian.DefaultJobOptions(), Els: els, Pos: pos}.encode()))
	// Truncated frame.
	f.Add(EncodeFrame(MsgLease, bytes.Repeat([]byte{1}, 64))[:30])
	// Bit-flipped payload (CRC must catch it).
	flipped := EncodeFrame(MsgServe, []byte("intensity"))
	flipped[headerSize+2] ^= 0x10
	f.Add(flipped)
	// Version-skewed frame.
	skewed := EncodeFrame(MsgHeartbeat, nil)
	skewed[4] = 0xFF
	f.Add(skewed)
	// Wrong magic.
	f.Add(append([]byte("QFXX"), EncodeFrame(MsgBye, nil)[4:]...))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := ReadFrame(bytes.NewReader(b), 0)
		if err != nil {
			return
		}
		if fr.Type == 0 || fr.Type > msgMax {
			t.Fatalf("accepted out-of-range message type %d", fr.Type)
		}
		if got := EncodeFrame(fr.Type, fr.Payload); !bytes.Equal(got, b[:n]) {
			t.Fatalf("accepted frame is not canonical: re-encodes to %d bytes from %d", len(got), n)
		}
		// The option-carrying payloads are canonical too: a JOB or LEASE the
		// decoder accepts is exactly the encoding of what it decoded to.
		switch fr.Type {
		case MsgJob:
			if m, err := decodeJob(fr.Payload); err == nil && !bytes.Equal(m.encode(), fr.Payload) {
				t.Fatal("accepted JOB payload is not canonical")
			}
		case MsgLease:
			if m, err := decodeLease(fr.Payload); err == nil && !bytes.Equal(m.encode(), fr.Payload) {
				t.Fatal("accepted LEASE payload is not canonical")
			}
		}
	})
}
