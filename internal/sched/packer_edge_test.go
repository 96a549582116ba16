package sched

import "testing"

// drainPacker pulls every task from a fresh packer and asserts the
// invariants that hold for every setting and every input: no empty tasks,
// strictly increasing task IDs, in-range fragment indices, each fragment
// delivered exactly once, and a drained packer that keeps returning nil.
func drainPacker(t *testing.T, sizes []int, opt PackerOptions) []*Task {
	t.Helper()
	p := NewPacker(sizes, opt)
	var tasks []*Task
	delivered := make(map[int]int)
	prevID := -1
	for {
		task := p.Next()
		if task == nil {
			break
		}
		if len(task.Fragments) == 0 {
			t.Fatalf("task %d is empty", task.ID)
		}
		if task.ID <= prevID {
			t.Fatalf("task IDs not strictly increasing: %d after %d", task.ID, prevID)
		}
		prevID = task.ID
		for _, f := range task.Fragments {
			if f < 0 || f >= len(sizes) {
				t.Fatalf("task %d contains out-of-range fragment %d (pool size %d)", task.ID, f, len(sizes))
			}
			delivered[f]++
		}
		tasks = append(tasks, task)
		if len(tasks) > len(sizes)+1 {
			t.Fatalf("packer produced %d tasks for %d fragments: not terminating", len(tasks), len(sizes))
		}
	}
	if r := p.Remaining(); r != 0 {
		t.Fatalf("drained packer reports %d remaining", r)
	}
	if p.Next() != nil {
		t.Fatal("Next() on a drained packer returned a task")
	}
	for i := range sizes {
		if delivered[i] != 1 {
			t.Fatalf("fragment %d delivered %d times, want exactly once", i, delivered[i])
		}
	}
	return tasks
}

// repeat builds n copies of size v.
func repeat(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestPackerEdgeCases exercises the degenerate pools a real decomposition
// can produce — an empty system, one huge fragment, the waterbox's
// all-identical fragments, and a protein giant amid solvent tinies — under
// every packing policy. The size-sensitive policy additionally guarantees
// that large fragments ship solo and MaxPack is never exceeded, including
// in the shrinking tail.
func TestPackerEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
		opt   PackerOptions
		check func(t *testing.T, tasks []*Task, sizes []int, opt PackerOptions)
	}{
		{
			name:  "empty-pool",
			sizes: nil,
			opt:   DefaultPackerOptions(4),
			check: func(t *testing.T, tasks []*Task, _ []int, _ PackerOptions) {
				if len(tasks) != 0 {
					t.Fatalf("empty pool produced %d tasks", len(tasks))
				}
			},
		},
		{
			name:  "single-oversized",
			sizes: []int{5000},
			opt:   DefaultPackerOptions(8),
			check: func(t *testing.T, tasks []*Task, _ []int, _ PackerOptions) {
				if len(tasks) != 1 || len(tasks[0].Fragments) != 1 {
					t.Fatalf("one oversized fragment should be one single-fragment task, got %d tasks", len(tasks))
				}
			},
		},
		{
			// Every fragment equals maxSize, so every fragment clears the
			// LargeFraction cut: the waterbox degenerates to solo tasks.
			name:  "all-equal",
			sizes: repeat(10, 12),
			opt:   DefaultPackerOptions(4),
			check: func(t *testing.T, tasks []*Task, sizes []int, _ PackerOptions) {
				if len(tasks) != len(sizes) {
					t.Fatalf("all-equal pool: got %d tasks, want %d solo tasks", len(tasks), len(sizes))
				}
				for _, task := range tasks {
					if len(task.Fragments) != 1 {
						t.Fatalf("all-equal pool: task %d carries %d fragments, want 1", task.ID, len(task.Fragments))
					}
				}
			},
		},
		{
			name:  "giant-plus-tiny",
			sizes: append([]int{1000}, repeat(3, 40)...),
			opt:   DefaultPackerOptions(4),
			check: func(t *testing.T, tasks []*Task, sizes []int, opt PackerOptions) {
				first := tasks[0]
				if len(first.Fragments) != 1 || sizes[first.Fragments[0]] != 1000 {
					t.Fatalf("giant fragment not dispatched first and solo: task 0 = %v", first.Fragments)
				}
				// Granularity only shrinks after the giant: the tail must
				// not coarsen as idle leaders wait for the last fragments.
				prev := -1
				for _, task := range tasks[1:] {
					if prev >= 0 && len(task.Fragments) > prev {
						t.Fatalf("task %d grew to %d fragments after one of %d", task.ID, len(task.Fragments), prev)
					}
					prev = len(task.Fragments)
				}
			},
		},
		{
			// MaxPack=1 with a 2-fragment tail is the corner where the
			// tail's Remaining/NumLeaders granularity (=2) would exceed
			// the configured ceiling if it were not clamped.
			name:  "maxpack-one-tail",
			sizes: []int{100, 5, 5, 5, 5},
			opt: PackerOptions{
				NumLeaders:      1,
				LargeFraction:   0.6,
				PackTargetAtoms: 90,
				MaxPack:         1,
			},
			check: func(t *testing.T, tasks []*Task, _ []int, _ PackerOptions) {},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tasks := drainPacker(t, tc.sizes, tc.opt)
			// Size-sensitive guarantees on top of the universal ones.
			if len(tc.sizes) > 0 {
				maxSize := 0
				for _, s := range tc.sizes {
					if s > maxSize {
						maxSize = s
					}
				}
				largeCut := int(tc.opt.LargeFraction * float64(maxSize))
				for _, task := range tasks {
					if tc.opt.MaxPack > 0 && len(task.Fragments) > tc.opt.MaxPack {
						t.Fatalf("task %d carries %d fragments, MaxPack is %d", task.ID, len(task.Fragments), tc.opt.MaxPack)
					}
					if len(task.Fragments) > 1 {
						for _, f := range task.Fragments {
							if tc.sizes[f] >= largeCut {
								t.Fatalf("large fragment %d (%d atoms ≥ cut %d) packed with %d others",
									f, tc.sizes[f], largeCut, len(task.Fragments)-1)
							}
						}
					}
				}
			}
			tc.check(t, tasks, tc.sizes, tc.opt)
		})
	}
}

// TestPackerEdgeCasesAllPolicies re-drains the edge pools at the packer's
// extreme settings — one fragment per task (MaxPack 1), and one leader packing
// as coarsely as it may: the delivery invariants hold at every setting.
func TestPackerEdgeCasesAllPolicies(t *testing.T) {
	pools := map[string][]int{
		"empty-pool":      nil,
		"single-fragment": {5000},
		"all-equal":       repeat(10, 12),
		"giant-plus-tiny": append([]int{1000}, repeat(3, 40)...),
	}
	fine := DefaultPackerOptions(4)
	fine.MaxPack = 1
	coarse := DefaultPackerOptions(1)
	coarse.PackTargetAtoms, coarse.MaxPack = 1<<20, 64
	for _, opt := range []PackerOptions{fine, coarse} {
		for name, sizes := range pools {
			t.Run(name, func(t *testing.T) {
				drainPacker(t, sizes, opt)
			})
		}
	}
}
