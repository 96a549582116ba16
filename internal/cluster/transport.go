package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"qframan/internal/obs"
)

// transport wraps one TCP connection with frame I/O, per-RPC metrics, and
// the chaos injector. Writes are serialized by wmu so concurrent
// goroutines (dispatcher, lease goroutines, heartbeat ticker) can share the
// connection; reads belong to a single reader goroutine.
type transport struct {
	c          net.Conn
	maxPayload int

	wmu  sync.Mutex
	wseq int // outbound frame counter, the injector's draw index
	inj  FrameInjector

	// nil-safe metric instruments (left nil without a registry).
	bytesIn, bytesOut *obs.Counter
	frames            [msgMax + 1]*obs.Counter
	frameErrors       *obs.Counter

	writeTimeout time.Duration
}

func newTransport(c net.Conn, maxPayload int, reg *obs.Registry) *transport {
	t := &transport{c: c, maxPayload: maxPayload, writeTimeout: 30 * time.Second}
	if t.maxPayload <= 0 {
		t.maxPayload = DefaultMaxPayload
	}
	if reg != nil {
		t.bytesIn = reg.Counter(obs.MetricClusterBytesIn)
		t.bytesOut = reg.Counter(obs.MetricClusterBytesOut)
		t.frameErrors = reg.Counter(obs.MetricClusterFrameErrors)
		for mt := MsgType(1); mt <= msgMax; mt++ {
			t.frames[mt] = reg.WithLabel("rpc", mt.String()).Counter(obs.MetricClusterFrames)
		}
	}
	return t
}

// write encodes and sends one frame, consulting the injector first. A
// dropped frame returns nil (the peer never sees it — exactly a lossy
// network); a severed connection closes the socket and reports the error.
func (t *transport) write(mt MsgType, payload []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	seq := t.wseq
	t.wseq++
	b := EncodeFrame(mt, payload)
	if t.inj != nil {
		plan := t.inj.PlanFrame(seq, mt)
		if plan.Delay > 0 {
			time.Sleep(plan.Delay)
		}
		switch {
		case plan.Sever:
			t.c.Close()
			return fmt.Errorf("cluster: chaos severed connection before %s", mt)
		case plan.Drop:
			return nil
		case plan.Corrupt:
			// Flip one payload bit: the receiver's CRC rejects the frame
			// and drops the connection, exercising the recovery path.
			b[len(b)-trailerSize-1] ^= 0x01
		}
	}
	if t.writeTimeout > 0 {
		t.c.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	n, err := t.c.Write(b)
	if t.bytesOut != nil {
		t.bytesOut.Add(int64(n))
	}
	if err == nil {
		if c := t.frames[mt]; c != nil {
			c.Inc()
		}
	}
	return err
}

// read blocks for the next frame. Framing errors (bad magic, CRC, size)
// poison the stream; the caller must drop the connection.
func (t *transport) read() (Frame, error) {
	f, n, err := ReadFrame(t.c, t.maxPayload)
	if t.bytesIn != nil {
		t.bytesIn.Add(int64(n))
	}
	if err != nil {
		if t.frameErrors != nil && n > 0 {
			t.frameErrors.Inc()
		}
		return Frame{}, err
	}
	if c := t.frames[f.Type]; c != nil {
		c.Inc()
	}
	return f, nil
}

// setReadDeadline arms (or with zero time disarms) the read timeout.
func (t *transport) setReadDeadline(d time.Time) { t.c.SetReadDeadline(d) }

func (t *transport) close() error { return t.c.Close() }
