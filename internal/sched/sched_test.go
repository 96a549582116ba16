package sched

import (
	"sync"
	"testing"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/structure"
)

func TestPackerCoversAllFragmentsOnce(t *testing.T) {
	sizes := []int{9, 35, 12, 6, 6, 68, 22, 6, 14, 30, 6, 6, 9, 41}
	for _, maxPack := range []int{1, 4, 16} {
		opt := DefaultPackerOptions(3)
		opt.MaxPack = maxPack
		p := NewPacker(sizes, opt)
		seen := map[int]int{}
		for {
			task := p.Next()
			if task == nil {
				break
			}
			if len(task.Fragments) == 0 {
				t.Fatalf("MaxPack %d: empty task", maxPack)
			}
			for _, f := range task.Fragments {
				seen[f]++
			}
		}
		if len(seen) != len(sizes) {
			t.Fatalf("MaxPack %d: covered %d fragments, want %d", maxPack, len(seen), len(sizes))
		}
		for f, c := range seen {
			if c != 1 {
				t.Fatalf("MaxPack %d: fragment %d handed out %d times", maxPack, f, c)
			}
		}
	}
}

func TestPackerLargeFragmentsAreSingletons(t *testing.T) {
	sizes := []int{68, 6, 6, 6, 6, 6, 6, 6, 60, 6, 6, 6}
	p := NewPacker(sizes, DefaultPackerOptions(2))
	first := p.Next()
	second := p.Next()
	if len(first.Fragments) != 1 || sizes[first.Fragments[0]] != 68 {
		t.Fatalf("first task %v should be the 68-atom fragment alone", first.Fragments)
	}
	if len(second.Fragments) != 1 || sizes[second.Fragments[0]] != 60 {
		t.Fatalf("second task %v should be the 60-atom fragment alone", second.Fragments)
	}
}

func TestPackerMediumPacked(t *testing.T) {
	// Uniform mid-size fragments well below the large cut: they must be
	// packed several to a task until the pool drains.
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 10
	}
	sizes[0] = 30 // defines maxSize so the rest are "medium"
	opt := DefaultPackerOptions(2)
	p := NewPacker(sizes, opt)
	p.Next() // the 30-atom task
	task := p.Next()
	if len(task.Fragments) < 2 {
		t.Fatalf("medium task has %d fragments, want packed", len(task.Fragments))
	}
}

func TestPackerTailShrinksGranularity(t *testing.T) {
	sizes := make([]int, 30)
	for i := range sizes {
		sizes[i] = 8
	}
	opt := DefaultPackerOptions(4)
	p := NewPacker(sizes, opt)
	var lastSize int
	for {
		task := p.Next()
		if task == nil {
			break
		}
		lastSize = len(task.Fragments)
	}
	if lastSize != 1 {
		t.Fatalf("final tail task has %d fragments, want 1", lastSize)
	}
}

func TestRunWaterDimers(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(3)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	datas, report, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(datas) != len(dec.Fragments) {
		t.Fatalf("results %d for %d fragments", len(datas), len(dec.Fragments))
	}
	for i, d := range datas {
		if d == nil || d.Hess == nil {
			t.Fatalf("fragment %d has no data", i)
		}
		want := 3 * dec.Fragments[i].NumAtoms()
		if d.Hess.Rows != want {
			t.Fatalf("fragment %d Hessian %d×%d, want %d", i, d.Hess.Rows, d.Hess.Cols, want)
		}
	}
	var frags int
	for _, ls := range report.Leaders {
		frags += ls.Fragments
	}
	if frags != len(dec.Fragments) {
		t.Fatalf("leaders report %d fragments, want %d", frags, len(dec.Fragments))
	}
	if report.NumTasks == 0 || report.Elapsed == 0 {
		t.Fatal("report not populated")
	}
}

func TestRunMatchesSerial(t *testing.T) {
	// The runtime schedules the engine, it does not change it: fragments run
	// by leaders with three displacement workers each carry the bits of the
	// engine run inline at width 1.
	sys := structure.BuildWaterDimerSystem(1)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.WorkersPerLeader = 3
	parallel, _, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec.Fragments {
		serial, _, err := hessian.ComputeFragment(&dec.Fragments[i], opt.Job, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !parallel[i].BitEqual(serial) {
			t.Fatalf("fragment %d: sched.Run at width 3 differs from the engine at width 1", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	dec, _ := fragment.Decompose(sys, fragment.DefaultOptions())
	opt := DefaultOptions()
	opt.NumLeaders = 0
	if _, _, err := Run(dec, opt); err == nil {
		t.Fatal("accepted zero leaders")
	}
}

func TestStragglerRequeue(t *testing.T) {
	// A fake engine: the first attempt at fragment 0 stalls far beyond the
	// straggler timeout; the watchdog must hand it to another leader, whose
	// fast attempt completes the run. First completion wins.
	sys := structure.BuildWaterDimerSystem(4)
	dec, err := fragment.Decompose(sys, fragment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := map[int]int{}
	release := make(chan struct{})
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.StragglerTimeout = 50 * time.Millisecond
	opt.Packer.MaxPack = 1
	opt.Prefetch = false
	opt.Process = func(f *fragment.Fragment, o Options) (*hessian.FragmentData, error) {
		mu.Lock()
		attempts[f.ID]++
		first := f.ID == dec.Fragments[0].ID && attempts[f.ID] == 1
		mu.Unlock()
		if first {
			<-release // stall until the whole run would otherwise be done
		} else {
			time.Sleep(5 * time.Millisecond)
		}
		return &hessian.FragmentData{Hess: nil}, nil
	}
	done := make(chan struct{})
	var report *Report
	var runErr error
	go func() {
		_, report, runErr = Run(dec, opt)
		close(done)
	}()
	// Give the run ample time to finish everything except the straggler,
	// requeue it, and complete it elsewhere; then release the stalled call.
	time.Sleep(400 * time.Millisecond)
	close(release)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if report.Requeues == 0 {
		t.Fatal("straggler was never requeued")
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts[dec.Fragments[0].ID] < 2 {
		t.Fatalf("fragment 0 attempted %d times, want ≥2", attempts[dec.Fragments[0].ID])
	}
}
