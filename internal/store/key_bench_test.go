package store

import (
	"crypto/sha256"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
)

// fingerprintAlloc is the pre-pool implementation — fresh buffers and a
// fresh digest per call — kept as the paired baseline of
// BenchmarkFingerprint so the allocation win stays measured, not asserted.
func fingerprintAlloc(f *fragment.Fragment, opt hessian.JobOptions) (Key, Frame) {
	s := &fpScratch{buf: make([]byte, 0, 64+len(f.Els)+24*len(f.Pos)), h: sha256.New()}
	return fingerprintInto(s, f, opt)
}

// BenchmarkFingerprint pairs the pooled fingerprint path against the
// pre-pool per-call-allocation implementation on the same fragment. The
// pooled path is the trajectory engine's per-frame diff hot loop, so the
// number to watch is allocs/op: pooled must be ~0, alloc is several per
// call.
func BenchmarkFingerprint(b *testing.B) {
	f := waterFragment()
	opt := hessian.DefaultJobOptions()
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Fingerprint(f, opt)
		}
	})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fingerprintAlloc(f, opt)
		}
	})
}

// TestFingerprintPooledMatchesAlloc: the pooled path and the baseline must
// agree on every key and frame — the pool is an optimization, not a format
// change — including across reuse of the same scratch.
func TestFingerprintPooledMatchesAlloc(t *testing.T) {
	opt := hessian.DefaultJobOptions()
	w := waterFragment()
	c := chiralFragment()
	for i := 0; i < 3; i++ { // repeat so pooled scratch gets reused
		k1, fr1 := Fingerprint(w, opt)
		k2, fr2 := fingerprintAlloc(w, opt)
		if k1 != k2 || fr1.Rotate != fr2.Rotate {
			t.Fatalf("pooled fingerprint diverged from baseline on water (iter %d)", i)
		}
		k3, _ := Fingerprint(c, opt)
		k4, _ := fingerprintAlloc(c, opt)
		if k3 != k4 {
			t.Fatalf("pooled fingerprint diverged from baseline on chiral fragment (iter %d)", i)
		}
		if k1 == k3 {
			t.Fatal("distinct fragments collided")
		}
	}
}

// TestFingerprintPooledAllocFree: the steady-state pooled path must not
// allocate — the satellite fix this PR pairs with BenchmarkFingerprint.
func TestFingerprintPooledAllocFree(t *testing.T) {
	f := waterFragment()
	opt := hessian.DefaultJobOptions()
	Fingerprint(f, opt) // warm the pool
	avg := testing.AllocsPerRun(100, func() { Fingerprint(f, opt) })
	if avg > 0.1 {
		t.Fatalf("pooled Fingerprint allocates %.1f objects/call, want 0", avg)
	}
}
