package cluster

import "time"

// FramePlan is the injector's verdict for one outbound frame. At most one
// destructive action applies per frame (Sever wins over Drop over
// Corrupt); Delay composes with any of them.
type FramePlan struct {
	// Drop swallows the frame: the peer never sees it (lossy network).
	Drop bool
	// Corrupt flips one payload bit before sending; the peer's CRC check
	// rejects the frame and the connection is dropped.
	Corrupt bool
	// Sever closes the connection instead of writing (network partition /
	// peer death as seen from this side).
	Sever bool
	// Delay stalls the write (congestion, slow link).
	Delay time.Duration
}

// FrameInjector decides the fate of each outbound frame. seq is the
// connection's outbound frame counter, so a deterministic injector
// reproduces the same fault schedule run after run.
type FrameInjector interface {
	PlanFrame(seq int, t MsgType) FramePlan
}
