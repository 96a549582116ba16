// Package sched implements the paper's three-level master–leader–worker
// runtime (§V-A, Fig. 3) with the system-size-sensitive load balancer
// (§V-B, Fig. 4): the master packs fragments into tasks whose granularity
// shrinks as the un-processed pool drains, leaders split each fragment into
// its atomic-displacement jobs and prefetch their next task, and workers run
// the per-displacement SCF+DFPT step.
package sched

import (
	"sort"
)

// Task is a set of fragment indices assigned to one leader as a unit.
type Task struct {
	ID        int
	Fragments []int
}

// PackerOptions tunes the size-sensitive policy.
type PackerOptions struct {
	// NumLeaders is used to decide when the tail begins.
	NumLeaders int
	// LargeFraction: fragments with ≥ LargeFraction·maxSize atoms are
	// dispatched as single-fragment tasks.
	LargeFraction float64
	// PackTargetAtoms is the accumulated size at which a medium task is
	// closed.
	PackTargetAtoms int
	// MaxPack bounds the number of fragments per task.
	MaxPack int
}

// DefaultPackerOptions returns the paper-flavored defaults.
func DefaultPackerOptions(numLeaders int) PackerOptions {
	return PackerOptions{
		NumLeaders:      numLeaders,
		LargeFraction:   0.6,
		PackTargetAtoms: 90,
		MaxPack:         16,
	}
}

// Packer hands out tasks on demand, implementing Fig. 4(b): the fragment
// pool is sorted by size; large fragments ship first as single-fragment
// tasks, medium fragments are packed to a target size, and once the pool is
// nearly drained the granularity decreases until every task is a single
// small fragment, letting busy and idle leaders finish together.
type Packer struct {
	opt    PackerOptions
	sizes  []int
	order  []int // fragment indices, sorted by size descending
	next   int   // cursor into order
	nextID int
}

// NewPacker builds a packer over the fragment sizes (atom counts).
func NewPacker(sizes []int, opt PackerOptions) *Packer {
	p := &Packer{opt: opt, sizes: sizes}
	p.order = make([]int, len(sizes))
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool {
		return sizes[p.order[a]] > sizes[p.order[b]]
	})
	return p
}

// Remaining returns the number of fragments not yet handed out.
func (p *Packer) Remaining() int { return len(p.order) - p.next }

// Next returns the next task, or nil when the pool is drained.
func (p *Packer) Next() *Task {
	if p.next >= len(p.order) {
		return nil
	}
	maxSize := p.sizes[p.order[0]]
	largeCut := int(p.opt.LargeFraction * float64(maxSize))
	first := p.order[p.next]
	if p.sizes[first] >= largeCut {
		// Large fragment: its own task.
		p.next++
		return p.task([]int{first})
	}
	// Tail: when few fragments remain relative to the leader count,
	// shrink granularity down to single fragments.
	tail := p.Remaining() <= 2*p.opt.NumLeaders
	budget := p.opt.PackTargetAtoms
	maxPack := p.opt.MaxPack
	if tail {
		// Granularity shrinks with the remaining pool — shrinks only:
		// the configured MaxPack stays a hard ceiling.
		maxPack = p.Remaining() / p.opt.NumLeaders
		if maxPack < 1 {
			maxPack = 1
		}
		if p.opt.MaxPack > 0 && maxPack > p.opt.MaxPack {
			maxPack = p.opt.MaxPack
		}
		budget = p.sizes[first] * maxPack
	}
	var frags []int
	atoms := 0
	for len(frags) < maxPack && p.next < len(p.order) {
		f := p.order[p.next]
		if atoms > 0 && atoms+p.sizes[f] > budget {
			break
		}
		frags = append(frags, f)
		atoms += p.sizes[f]
		p.next++
	}
	return p.task(frags)
}

// task numbers frags as the next task.
func (p *Packer) task(frags []int) *Task {
	t := &Task{ID: p.nextID, Fragments: frags}
	p.nextID++
	return t
}
