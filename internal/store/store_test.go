package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/par"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flatKey fabricates a key/frame pair for synthetic (non-rotating) records.
func flatKey(id byte, natoms int) (Key, Frame) {
	var k Key
	k[0] = id
	return k, Frame{NAtoms: natoms}
}

func TestStorePutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	fd := randomData(2, 1)
	k, fr := flatKey(1, 2)
	rt, err := s.Put(k, fr, fd)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.BitEqual(fd) {
		t.Fatal("Put's canonical roundtrip differs from the input in a non-rotating frame")
	}
	got, prior, err := s.Get(k, fr)
	if err != nil {
		t.Fatal(err)
	}
	if prior {
		t.Fatal("record written by this run reported as prior")
	}
	if !got.BitEqual(fd) {
		t.Fatal("Get is not bit-identical to Put")
	}
	if _, _, err := s.Get(Key{0xff}, fr); err != nil {
		t.Fatalf("clean miss returned error %v", err)
	}
}

// TestStoreReplayAcrossReopen is the resume property: a second process sees
// the first one's records, marked prior.
func TestStoreReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fd := randomData(3, 2)
	k, fr := flatKey(2, 3)
	if _, err := s.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if s2.Stats().Objects != 1 {
		t.Fatalf("reopen indexed %d records, want 1", s2.Stats().Objects)
	}
	got, prior, err := s2.Get(k, fr)
	if err != nil {
		t.Fatal(err)
	}
	if !prior {
		t.Fatal("prior-run record not marked prior after replay")
	}
	if !got.BitEqual(fd) {
		t.Fatal("replayed record is not bit-identical")
	}
	// Re-putting the key this run re-vouches it: no longer prior.
	if _, err := s2.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	if _, prior, _ := s2.Get(k, fr); prior {
		t.Fatal("re-vouched record still reported as prior")
	}
}

// TestStoreTornManifestTail simulates a crash mid-append: a partial final
// line must not poison the records before it.
func TestStoreTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fd := randomData(1, 3)
	k, fr := flatKey(3, 1)
	if _, err := s.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	s.Close()

	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mf.WriteString("put 00ab") // torn mid-key
	mf.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if s2.Stats().Objects != 1 {
		t.Fatalf("torn tail dropped valid records: indexed %d, want 1", s2.Stats().Objects)
	}
	if got, _, err := s2.Get(k, fr); err != nil || !got.BitEqual(fd) {
		t.Fatalf("record unreadable after torn tail: %v", err)
	}
}

// locate returns the segment file, offset and length of k's published
// record.
func locate(t *testing.T, s *Store, k Key) (string, int64, int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.idx[k]
	if e == nil {
		t.Fatalf("key %s not indexed", k)
	}
	return SegmentPath(s.dir, e.seg), e.off, e.n
}

// TestStoreWALIntentWithoutObject: a manifest line pointing past the end of
// its segment — the segment lost the tail the line vouches for — must be
// dropped on replay so the fragment requeues, and must not take the
// records before it along.
func TestStoreWALIntentWithoutObject(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fd := randomData(1, 4)
	k, fr := flatKey(4, 1)
	if _, err := s.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	_, off, n := locate(t, s, k)
	var ghost Key
	ghost[0] = 0xee
	s.mu.Lock()
	s.appendLine(fmt.Sprintf("put %s 3 0 %d 999\n", ghost, off+n)) // bytes that never landed
	s.mu.Unlock()
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if s2.Stats().Objects != 1 {
		t.Fatalf("ghost intent survived replay: indexed %d, want 1", s2.Stats().Objects)
	}
	if got, _, err := s2.Get(ghost, fr); got != nil || err != nil {
		t.Fatalf("ghost key served (%v, %v), want clean miss", got, err)
	}
	if got, _, err := s2.Get(k, fr); err != nil || !got.BitEqual(fd) {
		t.Fatalf("record before the ghost line unreadable: %v", err)
	}
}

// TestStoreCorruptObjectEvicted: a flipped bit inside a record's range must
// surface as ErrCorrupt exactly once, evict the record, and leave a clean
// miss — the requeue path — that a tombstone keeps across a reopen.
func TestStoreCorruptObjectEvicted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fd := randomData(2, 5)
	k, fr := flatKey(5, 2)
	if _, err := s.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	path, off, n := locate(t, s, k)
	seg, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := seg.ReadAt(b, off+n/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := seg.WriteAt(b, off+n/2); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	if _, _, err := s.Get(k, fr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record returned %v, want ErrCorrupt", err)
	}
	if got, _, err := s.Get(k, fr); got != nil || err != nil {
		t.Fatalf("after eviction got (%v, %v), want clean miss", got, err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if s2.Has(k) {
		t.Fatal("evicted record indexed again after reopen: no tombstone")
	}
	if got, _, err := s2.Get(k, fr); got != nil || err != nil {
		t.Fatalf("after reopen got (%v, %v), want clean miss", got, err)
	}
}

// TestStoreTruncatedObject: replay checks every line against its segment's
// length, so a record cut off mid-way by a truncated segment is dropped at
// open.
func TestStoreTruncatedObject(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fd := randomData(2, 6)
	k, fr := flatKey(6, 2)
	if _, err := s.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	path, off, n := locate(t, s, k)
	s.Close()
	if err := os.Truncate(path, off+n/3); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if s2.Stats().Objects != 0 {
		t.Fatalf("truncated record survived replay validation: %d records", s2.Stats().Objects)
	}

	// Cut while open, the short read is caught at Get instead.
	if _, err := s2.Put(k, fr, fd); err != nil {
		t.Fatal(err)
	}
	path, off, n = locate(t, s2, k)
	if err := os.Truncate(path, off+n/3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Get(k, fr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record cut short under an open store returned %v, want ErrCorrupt", err)
	}
	if got, _, err := s2.Get(k, fr); got != nil || err != nil {
		t.Fatalf("after eviction got (%v, %v), want clean miss", got, err)
	}
}

// TestStoreRefusesV1: a store of the per-record-file layout is refused with
// ErrFormat, and left as it was.
func TestStoreRefusesV1(t *testing.T) {
	dir := t.TempDir()
	v1 := "qfstore v1\nput " + Key{1}.String() + " 3 1200\n"
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir); !errors.Is(err, ErrFormat) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open on a v1 store returned %v, want ErrFormat", err)
	}
	if b, _ := os.ReadFile(path); string(b) != v1 {
		t.Fatalf("refused manifest was rewritten: %q", b)
	}
}

// TestStoreFilesPerRecords: a thousand records live in one segment beside
// the manifest — two files, not one per record.
func TestStoreFilesPerRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	blob, err := Encode(randomData(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const total, batch = 1000, 100
	for i := 0; i < total; i += batch {
		recs := make([]RawRecord, batch)
		for j := range recs {
			recs[j] = RawRecord{NAtoms: 1, Blob: blob}
			recs[j].Key[0], recs[j].Key[1] = byte((i+j)>>8), byte(i+j)
		}
		if err := s.PutRaws(recs); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Objects != total {
		t.Fatalf("indexed %d records, want %d", s.Stats().Objects, total)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 2 {
		t.Fatalf("%d records take %d files, want at most 2", total, len(files))
	}
}

// TestStoreClosed: operations after Close are typed errors, never panics or
// served records.
func TestStoreClosed(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k, fr := flatKey(8, 2)
	if _, err := s.Put(k, fr, randomData(2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if fd, _, err := s.Get(k, fr); fd != nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = (%v, %v), want ErrClosed", fd != nil, err)
	}
	if b, ok, err := s.GetRaw(k); b != nil || ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("GetRaw after Close = (%v, %v), want ErrClosed", ok, err)
	}
	if _, err := s.Put(k, fr, randomData(2, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	s.Ref(k, 2) // a no-op, not a panic
}

func TestStoreStats(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 3; i++ {
		k, fr := flatKey(byte(10+i), 3)
		if _, err := s.Put(k, fr, randomData(3, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	k0, fr0 := flatKey(10, 3)
	for i := 0; i < 3; i++ { // serves append refs: the dedup numerator
		if _, _, err := s.Get(k0, fr0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Objects != 3 {
		t.Fatalf("Objects = %d, want 3", st.Objects)
	}
	if st.Logical != 6 {
		t.Fatalf("Logical = %d, want 6 (3 puts + 3 serves)", st.Logical)
	}
	if got, want := st.DedupRatio, 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("DedupRatio = %v, want %v", got, want)
	}
	if st.SizeHistogram[3] != 3 {
		t.Fatalf("SizeHistogram = %v, want {3:3}", st.SizeHistogram)
	}
	if n := len(st.SortedSizes()); n != 1 {
		t.Fatalf("SortedSizes has %d entries, want 1", n)
	}
	if st.Segments != 1 || st.DeadBytes != 0 {
		t.Fatalf("Segments = %d, DeadBytes = %d; want 1 segment, no dead bytes", st.Segments, st.DeadBytes)
	}

	// A record superseded by a later put of its key, and one tombstoned as
	// corrupt, both leave their bytes behind as dead.
	_, _, n0 := locate(t, s, k0)
	s.mu.Lock()
	delete(s.idx, k0) // unindexed, like a prior run's record: a put writes it anew
	s.mu.Unlock()
	if _, err := s.Put(k0, fr0, randomData(3, 0)); err != nil {
		t.Fatal(err)
	}
	k1, _ := flatKey(11, 3)
	s.mu.Lock()
	e1 := s.idx[k1]
	s.mu.Unlock()
	s.evict(k1, e1)
	st = s.Stats()
	if st.Objects != 2 || st.DeadBytes != n0+e1.n {
		t.Fatalf("Objects = %d, DeadBytes = %d; want 2 live, %d dead", st.Objects, st.DeadBytes, n0+e1.n)
	}
}

// TestFrameRotationRoundtrip: ToCanonical∘FromCanonical must reproduce the
// input to rounding error for a genuinely rotating frame.
func TestFrameRotationRoundtrip(t *testing.T) {
	f := waterFragment()
	_, fr := Fingerprint(f, hessian.DefaultJobOptions())
	if !fr.Rotate {
		t.Fatal("expected rotating frame")
	}
	fd := randomData(3, 11)
	canon, err := fr.ToCanonical(fd)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fr.FromCanonical(canon)
	if err != nil {
		t.Fatal(err)
	}
	checkClose := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
			t.Fatalf("%s: %v != %v after rotation roundtrip", name, a, b)
		}
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			checkClose("Hess", back.Hess.At(i, j), fd.Hess.At(i, j))
		}
	}
	for c := range fd.DAlpha {
		for i := range fd.DAlpha[c] {
			checkClose("DAlpha", back.DAlpha[c][i], fd.DAlpha[c][i])
		}
	}
	for k := range fd.DDipole {
		for i := range fd.DDipole[k] {
			checkClose("DDipole", back.DDipole[k][i], fd.DDipole[k][i])
		}
	}
}

// TestFrameRejectsMisshapenData: rotating data whose blocks disagree on the
// atom count would corrupt it silently; it must error instead.
func TestFrameRejectsMisshapenData(t *testing.T) {
	f := waterFragment()
	_, fr := Fingerprint(f, hessian.DefaultJobOptions())
	bad := randomData(3, 12)
	bad.DAlpha[0] = bad.DAlpha[0][:6] // 2 atoms' worth against a 3-atom Hessian
	if _, err := fr.ToCanonical(bad); err == nil {
		t.Fatal("mismatched block dimensions accepted for rotation")
	}
	notSquare := &hessian.FragmentData{Hess: linalg.NewMatrix(5, 6)}
	if _, err := fr.ToCanonical(notSquare); err == nil {
		t.Fatal("non-square Hessian accepted for rotation")
	}
}

// TestStoreServesRotatedFragment is the physics property behind cross-copy
// dedup: compute a water with the real engine in one pose, store it, serve
// it for a rigidly rotated copy, and compare against a direct computation of
// the rotated copy. Agreement is limited only by SCF/DFPT convergence and
// grid orientation, not by the frame transforms.
func TestStoreServesRotatedFragment(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine computation")
	}
	opt := hessian.DefaultJobOptions()
	fa := waterFragment()
	fb := rotated(translated(fa, geom.Vec3{X: 2.5, Y: -1, Z: 0.5}), geom.Vec3{X: 1}, geom.Vec3{X: 1, Y: 2, Z: 0.5}, 0.9)

	ka, fra := Fingerprint(fa, opt)
	kb, frb := Fingerprint(fb, opt)
	if ka != kb {
		t.Fatal("rigid copies do not share a key")
	}

	defer par.SetBudget(par.Budget())
	par.SetBudget(1)
	da, _, err := hessian.ComputeFragment(fa, opt)
	if err != nil {
		t.Fatal(err)
	}
	par.SetBudget(3)
	db, _, err := hessian.ComputeFragment(fb, opt)
	if err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if _, err := s.Put(ka, fra, da); err != nil {
		t.Fatal(err)
	}
	served, _, err := s.Get(kb, frb)
	if err != nil {
		t.Fatal(err)
	}

	// Scale-relative tolerance: the two direct computations solve on
	// differently oriented grids, so they agree to solver accuracy, not
	// machine epsilon.
	maxAbs := func(m func(i, j int) float64, n int) float64 {
		var a float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a = math.Max(a, math.Abs(m(i, j)))
			}
		}
		return a
	}
	scale := maxAbs(db.Hess.At, 9)
	var worst float64
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			worst = math.Max(worst, math.Abs(served.Hess.At(i, j)-db.Hess.At(i, j)))
		}
	}
	if worst > 1e-3*scale {
		t.Fatalf("served rotated Hessian deviates by %.3g (scale %.3g) from direct computation", worst, scale)
	}
}
