package par

import (
	"sync"
	"sync/atomic"
	"time"
)

// Profile accumulates per-kernel chunk timings for the benchmark harness's
// kernel-share table (bench/README.md, "Per-layer metrics"). While capture
// is active, every For/ReduceSum runs its chunks serially on the caller,
// timing each chunk individually, so the totals are computed-serial kernel
// seconds: measured per chunk, never mixed into a wall-clock number.
type Profile struct {
	mu   sync.Mutex
	logs map[string]*kernelLog
}

type kernelLog struct {
	total  time.Duration
	chunks int
}

var profile atomic.Pointer[Profile]

// StartProfile begins serial per-chunk capture on this process's kernels.
// Not for production paths: kernels run serially while active.
func StartProfile() *Profile {
	p := &Profile{logs: make(map[string]*kernelLog)}
	profile.Store(p)
	return p
}

// StopProfile ends capture.
func StopProfile() { profile.Store(nil) }

func (p *Profile) add(name string, durs []time.Duration) {
	p.mu.Lock()
	kl := p.logs[name]
	if kl == nil {
		kl = &kernelLog{}
		p.logs[name] = kl
	}
	for _, d := range durs {
		kl.total += d
	}
	kl.chunks += len(durs)
	p.mu.Unlock()
}

// ChunksByKernel returns the captured chunk count per kernel name. A kernel
// whose per-chunk times are below the timer or reporting resolution still
// shows its chunks here — the coverage check that proves every wired kernel
// actually executed.
func (p *Profile) ChunksByKernel() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.logs))
	for name, kl := range p.logs {
		out[name] = kl.chunks
	}
	return out
}

// ByKernel returns the captured serial seconds per kernel name.
func (p *Profile) ByKernel() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64, len(p.logs))
	for name, kl := range p.logs {
		out[name] = kl.total.Seconds()
	}
	return out
}
