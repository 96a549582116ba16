package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qframan/internal/hessian"
	"qframan/internal/obs"
)

// TestStoreConcurrentMixedGetPut is the multi-reader safety audit behind the
// serving daemon's shared store: N goroutines hammer a small, overlapping
// key set with mixed Get/Put (as concurrent jobs racing on shared water
// fragments do), under -race in CI. Every Get must serve either a clean
// miss or the exact bytes some Put wrote for that key — never a torn read —
// and the physical object count must equal the number of distinct keys.
func TestStoreConcurrentMixedGetPut(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()

	const nKeys = 8
	const workers = 16
	const opsPerWorker = 60

	// One canonical payload per key: concurrent writers of a key always
	// write the same bytes, exactly like dedup-racing jobs, so any valid
	// serve is bit-checkable.
	keys := make([]Key, nKeys)
	frames := make([]Frame, nKeys)
	want := make([]*hessian.FragmentData, nKeys)
	for i := range keys {
		keys[i], frames[i] = flatKey(byte(i+1), 2)
		want[i] = randomData(2, int64(i+100))
	}

	var gets, hits, puts atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsPerWorker; op++ {
				ki := (w*opsPerWorker + op*7) % nKeys
				if (w+op)%3 == 0 {
					rt, err := s.Put(keys[ki], frames[ki], want[ki])
					if err != nil {
						errs <- fmt.Errorf("worker %d put key %d: %w", w, ki, err)
						return
					}
					if !rt.BitEqual(want[ki]) {
						errs <- fmt.Errorf("worker %d: put roundtrip of key %d differs", w, ki)
						return
					}
					puts.Add(1)
					continue
				}
				fd, prior, err := s.Get(keys[ki], frames[ki])
				if err != nil {
					errs <- fmt.Errorf("worker %d get key %d: %w", w, ki, err)
					return
				}
				gets.Add(1)
				if fd == nil {
					continue // clean miss: no writer has landed this key yet
				}
				hits.Add(1)
				if prior {
					// The store started empty: every record was written by this
					// process, however the Get raced its Put.
					errs <- fmt.Errorf("worker %d: key %d served as prior in a fresh store", w, ki)
					return
				}
				if !fd.BitEqual(want[ki]) {
					errs <- fmt.Errorf("worker %d: torn/wrong read of key %d", w, ki)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if s.Len() != nKeys {
		t.Fatalf("store holds %d objects for %d distinct keys", s.Len(), nKeys)
	}
	st := s.Stats()
	if st.Objects != nKeys {
		t.Fatalf("stats report %d objects, want %d", st.Objects, nKeys)
	}
	// Dedup accounting must be stable: every put and every hit appended one
	// logical manifest record; misses appended none.
	wantLogical := int(puts.Load() + hits.Load())
	if st.Logical != wantLogical {
		t.Fatalf("logical records %d, want %d (%d puts + %d served gets)",
			st.Logical, wantLogical, puts.Load(), hits.Load())
	}

	// Reopen: the manifest replay must reconstruct the same index.
	s.Close()
	s2 := mustOpen(t, s.Dir())
	defer s2.Close()
	if s2.Len() != nKeys {
		t.Fatalf("replay reconstructed %d objects, want %d", s2.Len(), nKeys)
	}
	for i := range keys {
		fd, prior, err := s2.Get(keys[i], frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if fd == nil || !fd.BitEqual(want[i]) {
			t.Fatalf("key %d lost or corrupted across reopen", i)
		}
		if !prior {
			t.Fatalf("key %d not marked prior after reopen", i)
		}
	}
}

// TestStoreGetMissRacingCommit pins the eviction race the benchmark found
// (bench/README "A finding"): a Get looks a key up while its Put is between
// the WAL line and the rename, misses the object file, and the Put's commit
// lands before the Get decides about eviction. The committed record must
// stay indexed and be served as this process's own, for Get and GetRaw alike.
func TestStoreGetMissRacingCommit(t *testing.T) {
	for name, read := range map[string]func(*Store, Key, Frame) bool{
		"Get":    func(s *Store, k Key, fr Frame) bool { fd, _, err := s.Get(k, fr); return fd != nil || err != nil },
		"GetRaw": func(s *Store, k Key, _ Frame) bool { b, _, err := s.GetRaw(k); return b != nil || err != nil },
	} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			defer s.Close()
			k, fr := flatKey(1, 2)
			want := randomData(2, 7)
			blob, err := Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			// Put, split at its commit point: WAL line and in-flight entry
			// now, object rename from inside the racing read.
			if err := s.registerPut(k, fr.NAtoms, int64(len(blob))); err != nil {
				t.Fatal(err)
			}
			readMissHook = func() {
				if err := s.commitObject(k, blob); err != nil {
					t.Error(err)
				}
			}
			defer func() { readMissHook = nil }()
			if read(s, k, fr) {
				t.Fatal("read served a record (or failed) before its object existed")
			}
			readMissHook = nil

			if !s.Has(k) {
				t.Fatal("a committed record was evicted by the read that raced its commit")
			}
			fd, prior, err := s.Get(k, fr)
			if err != nil || fd == nil || !fd.BitEqual(want) {
				t.Fatalf("committed record not served after the race: fd=%v err=%v", fd != nil, err)
			}
			if prior {
				t.Fatal("record committed by this process reported as prior")
			}
			if got, want := s.Stats().Logical, 2; got != want {
				t.Fatalf("logical records %d, want %d (one put, one serve): the racing put was double-counted", got, want)
			}
		})
	}
}

// TestStoreConcurrentSetObs: every scheduler run sharing the store attaches
// its own scope; attachment must be race-free and first-wins while Get/Put
// traffic is in flight.
func TestStoreConcurrentSetObs(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	k, fr := flatKey(1, 2)
	fd := randomData(2, 1)

	regs := make([]*obs.Registry, 4)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.SetObs(obs.NewScope(nil, regs[i%len(regs)]))
			if _, err := s.Put(k, fr, fd); err != nil {
				t.Error(err)
			}
			if _, _, err := s.Get(k, fr); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Exactly one registry owns the latency series and the replay counter.
	owners := 0
	for _, r := range regs {
		snap := r.Snapshot()
		if _, ok := snap.Hists[obs.MetricStoreGetSeconds]; ok {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("store latency series owned by %d registries, want exactly 1", owners)
	}
}

// TestStoreHas: the existence probe tracks puts and evictions without I/O.
func TestStoreHas(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	k, fr := flatKey(7, 2)
	if s.Has(k) {
		t.Fatal("empty store claims the key")
	}
	if _, err := s.Put(k, fr, randomData(2, 3)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Fatal("Has misses a freshly put key")
	}
	s.evict(k)
	if s.Has(k) {
		t.Fatal("Has reports an evicted key")
	}
}
