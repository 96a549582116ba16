package store

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	if s.Stats().Objects != nKeys {
		t.Fatalf("store holds %d objects for %d distinct keys", s.Stats().Objects, nKeys)
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
	s2 := mustOpen(t, s.dir)
	defer s2.Close()
	if s2.Stats().Objects != nKeys {
		t.Fatalf("replay reconstructed %d objects, want %d", s2.Stats().Objects, nKeys)
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

// TestStoreGetMissRacingCommit: a read racing a Put sees either a clean
// miss or the whole record, never ErrCorrupt — for Get and GetRaw alike. The
// record's bytes are in the segment while its group commit fsyncs, but
// nothing is published until the fsync returns: a read inside that window
// is a clean miss, and every read after the Put returns is served as this
// process's own record.
func TestStoreGetMissRacingCommit(t *testing.T) {
	for name, read := range map[string]func(*Store, Key, Frame) (bool, error){
		"Get":    func(s *Store, k Key, fr Frame) (bool, error) { fd, _, err := s.Get(k, fr); return fd != nil, err },
		"GetRaw": func(s *Store, k Key, _ Frame) (bool, error) { b, _, err := s.GetRaw(k); return b != nil, err },
	} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			defer s.Close()
			k, fr := flatKey(1, 2)
			want := randomData(2, 7)

			// Inside the fsync: bytes written, nothing published.
			syncs := 0
			defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
			syncFile = func(f *os.File) error {
				syncs++
				if hit, err := read(s, k, fr); hit || err != nil {
					t.Errorf("read inside the commit's fsync = (%v, %v), want clean miss", hit, err)
				}
				return f.Sync()
			}
			// Around it: readers hammering the key while the Put runs.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := read(s, k, fr); err != nil {
							t.Errorf("read racing the commit: %v", err)
							return
						}
					}
				}()
			}
			rt, err := s.Put(k, fr, want)
			close(stop)
			wg.Wait()
			if err != nil || !rt.BitEqual(want) {
				t.Fatalf("Put = %v", err)
			}
			if syncs != 1 {
				t.Fatalf("%d fsyncs for one Put, want 1", syncs)
			}
			if hit, err := read(s, k, fr); !hit || err != nil {
				t.Fatalf("committed record not served after the Put returned: (%v, %v)", hit, err)
			}
			fd, prior, err := s.Get(k, fr)
			if err != nil || fd == nil || !fd.BitEqual(want) {
				t.Fatalf("committed record not served whole: fd=%v err=%v", fd != nil, err)
			}
			if prior {
				t.Fatal("record committed by this process reported as prior")
			}
		})
	}
}

// TestStoreGroupCommit: concurrent puts share fsyncs, and none returns
// before an fsync whose range covers its record. A sync-counting hook holds
// the first fsync long enough for the other puts to append behind it, so
// they land in the next group; the obs counters report the same numbers.
func TestStoreGroupCommit(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	reg := obs.NewRegistry()
	s.SetObs(obs.Scope{R: reg})

	const n = 8
	var syncs atomic.Int64
	var durable atomic.Int64 // segment length covered by the last finished fsync
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	syncFile = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		for {
			cur := durable.Load()
			if st.Size() <= cur || durable.CompareAndSwap(cur, st.Size()) {
				return nil
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, fr := flatKey(byte(i+1), 2)
			if _, err := s.Put(k, fr, randomData(2, int64(i))); err != nil {
				t.Error(err)
				return
			}
			covered := durable.Load()
			_, off, size := locate(t, s, k)
			if off+size > covered {
				t.Errorf("put %d returned with bytes [%d, %d) beyond the fsynced %d", i, off, off+size, covered)
			}
		}(i)
	}
	wg.Wait()
	if got := syncs.Load(); got >= n {
		t.Fatalf("%d concurrent puts took %d fsyncs, want fewer", n, got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricStoreFsyncs]; got != syncs.Load() {
		t.Fatalf("%s = %d, want %d", obs.MetricStoreFsyncs, got, syncs.Load())
	}
	if got := snap.Counters[obs.MetricStoreRecordsCommitted]; got != n {
		t.Fatalf("%s = %d, want %d", obs.MetricStoreRecordsCommitted, got, n)
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
	s.mu.Lock()
	e := s.idx[k]
	s.mu.Unlock()
	s.evict(k, e)
	if s.Has(k) {
		t.Fatal("Has reports an evicted key")
	}
}
