package sched

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/store"
)

// cacheDecomposition builds nf synthetic fragments with distinct collinear
// geometries: every fragment gets a unique content key, and the collinear
// poses keep the canonical frames rotation-free so the 1×1 fake payloads
// never meet the tensor rotations (which require 3N-dimensional data).
func cacheDecomposition(nf int) *fragment.Decomposition {
	dec := &fragment.Decomposition{Fragments: make([]fragment.Fragment, nf)}
	for i := range dec.Fragments {
		pos := make([]geom.Vec3, 3)
		for j := range pos {
			pos[j] = geom.Vec3{X: float64(j) * (1 + float64(i)/16)}
		}
		dec.Fragments[i] = fragment.Fragment{
			ID:  i,
			Els: []constants.Element{constants.O, constants.H, constants.H},
			Pos: pos,
		}
	}
	return dec
}

// cacheOptions wires a store into minimal single-leader options with a
// counting engine.
func cacheOptions(t *testing.T, s *store.Store, resume bool, calls *atomic.Int64) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.NumLeaders = 2
	opt.Cache = CacheOptions{Store: s, Resume: resume}
	opt.Process = func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
		if calls != nil {
			calls.Add(1)
		}
		return fakeData(f.ID), nil
	}
	return opt
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCacheWarmRunZeroRecompute: a second run over the same system must be
// served entirely from the store — zero engine calls, zero misses.
func TestCacheWarmRunZeroRecompute(t *testing.T) {
	dir := t.TempDir()
	dec := cacheDecomposition(12)

	var cold atomic.Int64
	s := openStore(t, dir)
	datas, rep, err := Run(dec, cacheOptions(t, s, false, &cold))
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, rep)
	if cold.Load() != 12 || rep.CacheMisses != 12 || rep.CacheHits != 0 {
		t.Fatalf("cold run: %d engine calls, %d misses, %d hits; want 12/12/0",
			cold.Load(), rep.CacheMisses, rep.CacheHits)
	}
	s.Close()

	var warm atomic.Int64
	s2 := openStore(t, dir)
	datas2, rep2, err := Run(dec, cacheOptions(t, s2, true, &warm))
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas2, rep2)
	if warm.Load() != 0 {
		t.Fatalf("warm run invoked the engine %d times, want 0", warm.Load())
	}
	if rep2.CacheMisses != 0 || rep2.Resumed != 12 || rep2.CacheHits != 12 || rep2.Deduped != 0 {
		t.Fatalf("warm run: misses=%d resumed=%d hits=%d deduped=%d; want 0/12/12/0",
			rep2.CacheMisses, rep2.Resumed, rep2.CacheHits, rep2.Deduped)
	}
	for i := range datas {
		if !datas[i].BitEqual(datas2[i]) {
			t.Fatalf("fragment %d: warm result is not bit-identical to cold", i)
		}
	}
}

// TestCacheWithinRunDedup: identical geometries collapse to one engine call;
// every copy carries the producer's exact bits.
func TestCacheWithinRunDedup(t *testing.T) {
	dec := cacheDecomposition(9)
	for i := 1; i < len(dec.Fragments); i++ { // make all copies of fragment 0
		dec.Fragments[i].Pos = dec.Fragments[0].Pos
	}
	var calls atomic.Int64
	s := openStore(t, t.TempDir())
	datas, rep, err := Run(dec, cacheOptions(t, s, false, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d engine calls for 9 identical fragments, want 1", calls.Load())
	}
	if rep.Deduped != 8 || rep.CacheMisses != 1 || rep.Resumed != 0 {
		t.Fatalf("deduped=%d misses=%d resumed=%d; want 8/1/0", rep.Deduped, rep.CacheMisses, rep.Resumed)
	}
	for i, d := range datas {
		if !d.BitEqual(datas[0]) {
			t.Fatalf("fragment %d: deduped copy differs bitwise from the producer's result", i)
		}
	}
}

// TestCacheCrashResumeBitMatch is the tentpole property: kill a run via a
// deterministic hard fault, resume into the same store, and the resumed
// results must be bit-identical to an uninterrupted run's.
func TestCacheCrashResumeBitMatch(t *testing.T) {
	dec := cacheDecomposition(10)

	// The uninterrupted reference run, in its own store.
	refStore := openStore(t, t.TempDir())
	ref, _, err := Run(dec, cacheOptions(t, refStore, false, nil))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := openStore(t, dir)
	crash := cacheOptions(t, s, false, nil)
	crash.MaxFailedFragments = 0
	crash.Injector = faults.NewInjector(faults.Config{Seed: 3, HardFailFrags: []int{7}})
	if _, _, err := Run(dec, crash); err == nil {
		t.Fatal("hard-failed run reported success")
	}
	s.Close()

	s2 := openStore(t, dir)
	datas, rep, err := Run(dec, cacheOptions(t, s2, true, nil))
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	checkExactlyOnce(t, dec, datas, rep)
	if rep.Resumed == 0 {
		t.Fatal("resume recomputed everything: no checkpointed fragment was served")
	}
	if rep.Resumed+rep.CacheMisses+rep.Deduped != 10 {
		t.Fatalf("resumed=%d + misses=%d + deduped=%d != 10", rep.Resumed, rep.CacheMisses, rep.Deduped)
	}
	for i := range ref {
		if !datas[i].BitEqual(ref[i]) {
			t.Fatalf("fragment %d: resumed result differs bitwise from uninterrupted run", i)
		}
	}
}

// TestCacheKeyIsolation: records written under one JobOptions must never be
// served to a run with different physics settings.
func TestCacheKeyIsolation(t *testing.T) {
	dec := cacheDecomposition(6)
	dir := t.TempDir()

	s := openStore(t, dir)
	if _, _, err := Run(dec, cacheOptions(t, s, false, nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	mutations := map[string]func(*Options){
		"Step":        func(o *Options) { o.Job.Step *= 2 },
		"GridSpacing": func(o *Options) { o.Job.DFPT.GridSpacing *= 1.5 },
	}
	for name, mutate := range mutations {
		s2 := openStore(t, dir)
		var calls atomic.Int64
		opt := cacheOptions(t, s2, true, &calls)
		mutate(&opt)
		_, rep, err := Run(dec, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.CacheHits != 0 || rep.Resumed != 0 {
			t.Fatalf("%s: %d cross-hits (%d resumed) across changed job options, want 0",
				name, rep.CacheHits, rep.Resumed)
		}
		if calls.Load() != 6 {
			t.Fatalf("%s: engine ran %d times, want 6", name, calls.Load())
		}
		s2.Close()
	}
}

// TestCacheSolverMigration: a store still holding this fragment's records
// under the keys earlier numerics gave it — grid mode under the CG Poisson
// solver (before poisson.SolverTag), grid and γ mode under the engine before
// hessian.EngineVersion was hashed (linear response mixing, fully bisected
// Fermi level), under engine/2 (Pulay charge loop from the first step, full
// mixer history), under engine/3 (Pulay loop on the γ-mode response), under
// engine/4 (Löwdin orthogonalization, unpaired displacements), under
// engine/5 (finite-difference chord matrix, no intraband response) under
// engine/6 (finite-difference dipole and polarizability derivatives), under
// engine/7 (grid mode's Pulay response loop), under engine/8
// (finite-difference Hessians from 6N displaced SCF solves), under
// engine/9 (grid mode's finite differences from 6N displaced SCF + grid
// solves), under engine/10 (−Step displaced solves started from their
// +Step partners' predictor), under engine/11 (nuclear responses and
// Hessian contracted through dense n×n matrices per coordinate), under
// engine/12 (each γ-kernel response closing its charges on its own; the last
// qfkey/v2 keys) and under engine/13 (the Pulay charge loop, a chord step only
// in displaced solves) — the constants were recorded on those commits — must
// serve none of them to a resumed run of this engine: each mode reports a
// miss, recomputes, and files its new record beside the old ones. A second
// resumed run is then served its own.
func TestCacheSolverMigration(t *testing.T) {
	const (
		gridKeyBeforeTag     = "491822e02145f4fdd5cbfa1f6c0b3b3a8602bf3c7a7cc9a949d44f803500ea81"
		gridKeyBeforeEngine  = "cb5bbfb80c561e82ad3e970381c851f1185e8a78c17f343558a80553fac11000"
		gammaKeyBeforeEngine = "cd98eb85c57e590b9ad4f2deb97e72188cb54f3108e6396df1ea25c3c28cdad7"
		gridKeyEngine2       = "4b8f4e43711f3389e480e9bc1a8122366bf9221d1850081c766701725cc6a1c9"
		gammaKeyEngine2      = "cb44d7814c91ddfa5e453af5c15fa722eb64275a64010763926b37d69ca51fd1"
		gridKeyEngine3       = "fd1a0f1e8cb3189f9801d0203957b8c69a3ef7b650735140f667aeb1945cb166"
		gammaKeyEngine3      = "dfe7993a736644cfb30cde4f8d2a9a2ed0269a1e54742a106efbec925c66981b"
		gridKeyEngine4       = "3f96a8c23b79cc77501b59c7b4ede5b9d5926ec5867030e5951fc0f1c532162d"
		gammaKeyEngine4      = "98e1cc0e60cc837e3b867f43d6743661f0cc96e68efd9b3a204f36b8fc96295d"
		gridKeyEngine5       = "bfb373ed5e270d7bec1ae3ba1d8377b6be49e7de8042eca88ebc8c7102bba0df"
		gammaKeyEngine5      = "09edc6e57eecddbb285e94eaec0918cc7a75b38df970da8d82f3766ea8075013"
		gridKeyEngine6       = "d1b43883bc477951b65a569b214fc80b14812b40843bb3803f147473dfdc6da2"
		gammaKeyEngine6      = "70f2a3d6c3c9d25b448ca9bb12f43abffd2ba4aaf170681109cab3616a318ddf"
		gridKeyEngine7       = "de8c29f415feca6f14f6a87effae1b20cbf1a84ed9855e28bf00326353665c89"
		gammaKeyEngine7      = "595a639a2765f33561ca3bcee7f706ae9d868649c9cdfbb801582534b98a6d9f"
		gridKeyEngine8       = "2d205a9c49b2422b7922fb6ccea7ad1ba5ca1a128ec799409dcea0d1a0de0166"
		gammaKeyEngine8      = "d23e0accccfd0b831b6c0a0342d3542807b3d0767de91a33245fd166a9478ecc"
		gridKeyEngine9       = "c51e87c9bc9ac031e59f40d3b767b4fe1d0d4c1a82c28857213e61e6414c8697"
		gammaKeyEngine9      = "e10d703905dddae2c86a4c1a8141b94a8adb3c42a09694213a120322c9941b6d"
		gridKeyEngine10      = "08347ce80e8416ed7f3c823594031133c7d88e94832788bc2d215cdaf512f6fa"
		gammaKeyEngine10     = "4547c776b8c57bf3f67b6ad0f76f5adceed3d582112436c04da508f00e576438"
		gridKeyEngine11      = "d63ba79a9698cd5bfcaf4b93b5c6f999833e3780b655b24861b8ddba6bd7bdfd"
		gammaKeyEngine11     = "7aec904c4dea73b83662ab28e88658b8498bfdbfc6742598d3d8de468bed1feb"
		gridKeyEngine12      = "ae41b45cc2ce5037bbfffa8768266fb51a93c33d7a745e6cb018ac6fbcb5aca6"
		gammaKeyEngine12     = "52f5c73372d0af858d8769916cd38712f1f984cc4c420caa3f404c245c606171"
		gridKeyEngine13      = "198435afe3b1149ddcf05afaed79da69cd4ca83ea3c2f834d1a7ce4e7788e322"
		gammaKeyEngine13     = "d06580c119a6bf75a4279c4a0b64d937dd5ed20895627b3beb7fce71d7f7b313"
	)
	old := []string{gridKeyBeforeTag, gridKeyBeforeEngine, gammaKeyBeforeEngine, gridKeyEngine2, gammaKeyEngine2,
		gridKeyEngine3, gammaKeyEngine3, gridKeyEngine4, gammaKeyEngine4, gridKeyEngine5, gammaKeyEngine5,
		gridKeyEngine6, gammaKeyEngine6, gridKeyEngine7, gammaKeyEngine7, gridKeyEngine8, gammaKeyEngine8,
		gridKeyEngine9, gammaKeyEngine9, gridKeyEngine10, gammaKeyEngine10, gridKeyEngine11, gammaKeyEngine11,
		gridKeyEngine12, gammaKeyEngine12, gridKeyEngine13, gammaKeyEngine13}
	dec := cacheDecomposition(1)
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, hex := range old {
		k, err := store.ParseKey(hex)
		if err != nil {
			t.Fatal(err)
		}
		_, fr := store.Fingerprint(&dec.Fragments[0], DefaultOptions().Job)
		if _, err := s.Put(k, fr, fakeData(0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	for _, tc := range []struct {
		mode        dfpt.CoulombMode
		calls, hits int
	}{
		{dfpt.GridCoulomb, 1, 0},
		{dfpt.GammaCoulomb, 1, 0},
		{dfpt.GridCoulomb, 0, 1},
		{dfpt.GammaCoulomb, 0, 1},
	} {
		s2 := openStore(t, dir)
		var calls atomic.Int64
		opt := cacheOptions(t, s2, true, &calls)
		opt.Job.DFPT.Coulomb = tc.mode
		_, rep, err := Run(dec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if int(calls.Load()) != tc.calls || rep.Resumed != tc.hits || rep.CacheMisses != tc.calls {
			t.Fatalf("Coulomb mode %d: %d engine calls, %d resumed, %d misses; want %d/%d/%d",
				tc.mode, calls.Load(), rep.Resumed, rep.CacheMisses, tc.calls, tc.hits, tc.calls)
		}
		s2.Close()
	}
	s3 := openStore(t, dir)
	defer s3.Close()
	if n := s3.Stats().Objects; n != len(old)+2 {
		t.Fatalf("store holds %d records, want the %d old ones and the two recomputed", n, len(old))
	}
	for _, hex := range old {
		k, _ := store.ParseKey(hex)
		if !s3.Has(k) {
			t.Errorf("old record %s was displaced by the migration", hex[:12])
		}
	}
}

// TestCacheIgnoresPriorWithoutResume: without -resume, prior-run records are
// invisible; the run recomputes (and re-vouches) everything.
func TestCacheIgnoresPriorWithoutResume(t *testing.T) {
	dec := cacheDecomposition(5)
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, _, err := Run(dec, cacheOptions(t, s, false, nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	var calls atomic.Int64
	s2 := openStore(t, dir)
	_, rep, err := Run(dec, cacheOptions(t, s2, false, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 || calls.Load() != 5 {
		t.Fatalf("without Resume: resumed=%d, engine calls=%d; want 0/5", rep.Resumed, calls.Load())
	}
}

// TestCacheCorruptRecordRequeued: a bit-flipped object must be detected,
// counted, and transparently recomputed with the correct payload.
func TestCacheCorruptRecordRequeued(t *testing.T) {
	dec := cacheDecomposition(4)
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, _, err := Run(dec, cacheOptions(t, s, false, nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one bit in one record, found through its manifest line:
	// put <key> <natoms> <seg> <off> <len>.
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.log"))
	if err != nil {
		t.Fatal(err)
	}
	var puts [][]string
	for _, line := range strings.Split(string(manifest), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "put" {
			puts = append(puts, f)
		}
	}
	if len(puts) != 4 {
		t.Fatalf("found %d put lines, want 4", len(puts))
	}
	seg, err1 := strconv.Atoi(puts[2][3])
	off, err2 := strconv.ParseInt(puts[2][4], 10, 64)
	n, err3 := strconv.ParseInt(puts[2][5], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("malformed put line %q", puts[2])
	}
	f, err := os.OpenFile(store.SegmentPath(dir, seg), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+n/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b, off+n/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	datas, rep, err := Run(dec, cacheOptions(t, s2, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, rep)
	if rep.StoreErrors == 0 {
		t.Fatal("corrupt record was not counted as a store error")
	}
	if rep.CacheMisses != 1 || rep.Resumed != 3 {
		t.Fatalf("misses=%d resumed=%d; want 1 recomputed, 3 resumed", rep.CacheMisses, rep.Resumed)
	}
}

// TestCacheReadOnlyStore: with checkpointing disabled nothing is written,
// every fragment computes itself (a representative that finishes without a
// record to share hands the class on — the promote path), and the run still
// terminates exactly-once.
func TestCacheReadOnlyStore(t *testing.T) {
	dec := cacheDecomposition(8)
	for i := 1; i < 4; i++ { // a dedup class that can never be served
		dec.Fragments[i].Pos = dec.Fragments[0].Pos
	}
	var calls atomic.Int64
	dir := t.TempDir()
	s := openStore(t, dir)
	opt := cacheOptions(t, s, false, &calls)
	opt.Cache.ReadOnly = true
	datas, rep, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, dec, datas, rep)
	if calls.Load() != 8 {
		t.Fatalf("read-only run made %d engine calls, want 8 (no serving possible)", calls.Load())
	}
	if s.Stats().Objects != 0 {
		t.Fatalf("read-only run wrote %d objects", s.Stats().Objects)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("read-only run reported %d hits", rep.CacheHits)
	}
}

// TestCacheProducerFailureTakeover: when a class's representative fails
// permanently under a fail-soft budget, the next member must be promoted
// and compute, so the class still completes.
func TestCacheProducerFailureTakeover(t *testing.T) {
	dec := cacheDecomposition(6)
	dec.Fragments[3].Pos = dec.Fragments[0].Pos // fragment 0 produces for both
	opt := cacheOptions(t, openStore(t, t.TempDir()), false, nil)
	opt.MaxFailedFragments = 1
	opt.Injector = faults.NewInjector(faults.Config{Seed: 5, HardFailFrags: []int{0}})
	datas, rep, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", rep.Failed)
	}
	if datas[3] == nil || !datas[3].BitEqual(fakeData(3)) {
		t.Fatal("fragment 3 did not take over production after its producer failed")
	}
}

// rotatedDuplicates builds a decomposition of bent waters in which every
// geometry occurs several times in different rigid poses, interleaved, so
// each content class has rotating frames and a non-trivial membership.
func rotatedDuplicates(distinct, copies int) *fragment.Decomposition {
	dec := &fragment.Decomposition{}
	for c := 0; c < copies; c++ {
		for g := 0; g < distinct; g++ {
			bond := 0.9 + 0.05*float64(g)
			pos := []geom.Vec3{{}, {X: bond}, {X: -0.25 * bond, Y: 0.95 * bond}}
			for i, p := range pos {
				p = geom.RotateAbout(p, geom.Vec3{X: 1, Y: -2, Z: 0.5}, geom.Vec3{X: 1, Y: float64(g + 1), Z: -2}, 0.9*float64(c))
				pos[i] = p.Add(geom.Vec3{X: 3 * float64(c), Y: -1.5 * float64(g), Z: float64(c * g)})
			}
			dec.Fragments = append(dec.Fragments, fragment.Fragment{
				ID:  len(dec.Fragments),
				Els: []constants.Element{constants.O, constants.H, constants.H},
				Pos: pos,
			})
		}
	}
	return dec
}

// fullData is a deterministic 3-atom payload with every tensor block
// present, so frame rotations act on it.
func fullData(fragID int) *hessian.FragmentData {
	rng := rand.New(rand.NewSource(int64(fragID) + 1))
	fd := &hessian.FragmentData{Hess: linalg.NewMatrix(9, 9)}
	for i := range fd.Hess.Data {
		fd.Hess.Data[i] = rng.NormFloat64()
	}
	for c := range fd.DAlpha {
		fd.DAlpha[c] = make([]float64, 9)
		for i := range fd.DAlpha[c] {
			fd.DAlpha[c][i] = rng.NormFloat64()
		}
	}
	for k := range fd.DDipole {
		fd.DDipole[k] = make([]float64, 9)
		for i := range fd.DDipole[k] {
			fd.DDipole[k][i] = rng.NormFloat64()
		}
	}
	return fd
}

// TestCacheOneStoreOperationPerClass: the store is read (or written) once
// per distinct content key, not once per fragment, and every member of a
// class still carries exactly the bits a per-fragment Store.Get — the path
// every fragment took before classes were the unit of scheduling — returns.
func TestCacheOneStoreOperationPerClass(t *testing.T) {
	const distinct, copies = 3, 5
	dec := rotatedDuplicates(distinct, copies)
	nf := len(dec.Fragments)
	cls := store.Classify(dec.Fragments, DefaultOptions().Job)
	if len(cls.Reps) != distinct {
		t.Fatalf("decomposition has %d content classes, want %d", len(cls.Reps), distinct)
	}
	for _, fr := range cls.Frames {
		if !fr.Rotate {
			t.Fatal("bent water got a translation-only frame: the test would not exercise rotation")
		}
	}
	perFragment := func(s *store.Store, datas []*hessian.FragmentData) {
		t.Helper()
		for i := range datas {
			want, _, err := s.Get(cls.Keys[i], cls.Frames[i])
			if err != nil || want == nil {
				t.Fatalf("fragment %d: no record behind a completed run (err %v)", i, err)
			}
			if !datas[i].BitEqual(want) {
				t.Fatalf("fragment %d differs bitwise from a per-fragment Store.Get", i)
			}
		}
	}
	engine := func(calls *atomic.Int64) ProcessFunc {
		return func(f *fragment.Fragment, _ Options) (*hessian.FragmentData, error) {
			calls.Add(1)
			return fullData(f.ID), nil
		}
	}

	dir := t.TempDir()
	var calls atomic.Int64
	s := openStore(t, dir)
	opt := cacheOptions(t, s, false, nil)
	opt.Process = engine(&calls)
	cold, rep, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != distinct || rep.CacheMisses != distinct || rep.Deduped != nf-distinct || rep.Resumed != 0 {
		t.Fatalf("cold: %d engine calls, misses=%d deduped=%d resumed=%d; want %d/%d/%d/0",
			calls.Load(), rep.CacheMisses, rep.Deduped, rep.Resumed, distinct, distinct, nf-distinct)
	}
	if st := s.Stats(); st.Objects != distinct || st.Logical != nf {
		t.Fatalf("cold run left %d objects backing %d results, want %d/%d", st.Objects, st.Logical, distinct, nf)
	}
	perFragment(s, cold)
	s.Close()

	s2 := openStore(t, dir)
	before := s2.Stats().Logical
	reg := obs.NewRegistry()
	opt = cacheOptions(t, s2, true, nil)
	opt.Process = engine(&calls)
	opt.Obs = obs.NewScope(nil, reg) // attaches the store's Get latency histogram
	warm, rep2, err := Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reads := reg.Snapshot().Hists[obs.MetricStoreGetSeconds].Count; reads != distinct {
		t.Fatalf("warm run read the store %d times for %d fragments, want %d (one per distinct key)", reads, nf, distinct)
	}
	if backed := s2.Stats().Logical - before; backed != nf {
		t.Fatalf("manifest tallies %d results backed by the store for %d fragments", backed, nf)
	}
	if calls.Load() != distinct || rep2.CacheMisses != 0 || rep2.Resumed != nf || rep2.Deduped != 0 {
		t.Fatalf("warm: %d engine calls in total, misses=%d resumed=%d deduped=%d; want %d/0/%d/0",
			calls.Load(), rep2.CacheMisses, rep2.Resumed, rep2.Deduped, distinct, nf)
	}
	if rep2.NumTasks > distinct {
		t.Fatalf("warm run dispatched %d tasks for %d classes", rep2.NumTasks, distinct)
	}
	for i := range cold {
		if !warm[i].BitEqual(cold[i]) {
			t.Fatalf("fragment %d: warm result differs bitwise from cold", i)
		}
	}
	perFragment(s2, warm)
}
