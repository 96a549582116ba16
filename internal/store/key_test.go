package store

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/poisson"
)

// waterFragment is a bent 3-atom water in an arbitrary pose.
func waterFragment() *fragment.Fragment {
	return &fragment.Fragment{
		ID:   7,
		Els:  []constants.Element{constants.O, constants.H, constants.H},
		Pos:  []geom.Vec3{{X: 0.1, Y: -0.2, Z: 0.3}, {X: 1.06, Y: -0.2, Z: 0.3}, {X: -0.14, Y: 0.73, Z: 0.3}},
		Kind: fragment.KindWater,
	}
}

// chiralFragment is a 4-atom geometry with no mirror symmetry.
func chiralFragment() *fragment.Fragment {
	return &fragment.Fragment{
		Els: []constants.Element{constants.C, constants.H, constants.N, constants.O},
		Pos: []geom.Vec3{{}, {X: 1.1}, {Y: 1.3}, {X: 0.2, Y: 0.4, Z: 1.5}},
	}
}

func translated(f *fragment.Fragment, d geom.Vec3) *fragment.Fragment {
	g := *f
	g.Pos = make([]geom.Vec3, len(f.Pos))
	for i, p := range f.Pos {
		g.Pos[i] = p.Add(d)
	}
	return &g
}

func rotated(f *fragment.Fragment, o, axis geom.Vec3, theta float64) *fragment.Fragment {
	g := *f
	g.Pos = make([]geom.Vec3, len(f.Pos))
	for i, p := range f.Pos {
		g.Pos[i] = geom.RotateAbout(p, o, axis, theta)
	}
	return &g
}

func mirrored(f *fragment.Fragment) *fragment.Fragment {
	g := *f
	g.Pos = make([]geom.Vec3, len(f.Pos))
	for i, p := range f.Pos {
		g.Pos[i] = geom.Vec3{X: p.X, Y: p.Y, Z: -p.Z}
	}
	return &g
}

// TestKeyRigidMotionInvariance is the dedup property: rigid copies of one
// molecule — the paper's randomly oriented box waters — share one key.
func TestKeyRigidMotionInvariance(t *testing.T) {
	f := waterFragment()
	opt := hessian.DefaultJobOptions()
	k0, fr0 := Fingerprint(f, opt)
	if !fr0.Rotate {
		t.Fatal("bent water should get a rotation-canonical frame")
	}
	if k1, _ := Fingerprint(translated(f, geom.Vec3{X: 5.5, Y: -17, Z: 3.25}), opt); k1 != k0 {
		t.Error("translation changed the key")
	}
	if k2, _ := Fingerprint(rotated(f, geom.Vec3{X: 1, Y: 2, Z: 3}, geom.Vec3{X: 1, Y: 1, Z: -2}, 1.1), opt); k2 != k0 {
		t.Error("rotation changed the key")
	}
	combo := rotated(translated(f, geom.Vec3{X: -8, Z: 2}), geom.Vec3{}, geom.Vec3{Y: 1}, 2.7)
	if k3, _ := Fingerprint(combo, opt); k3 != k0 {
		t.Error("combined rigid motion changed the key")
	}
	// Fragment bookkeeping never enters the fingerprint.
	g := *f
	g.ID, g.Coeff, g.Kind = 99, -1, fragment.KindMonoWW
	if k4, _ := Fingerprint(&g, opt); k4 != k0 {
		t.Error("fragment identity (ID/Coeff/Kind) changed the key")
	}
}

// TestKeyDiscriminates: anything that changes the physics must change the
// key — geometry beyond the quantum, species, chirality, and every solver
// knob. A cross-hit here would serve wrong data silently.
func TestKeyDiscriminates(t *testing.T) {
	f := waterFragment()
	opt := hessian.DefaultJobOptions()
	k0, _ := Fingerprint(f, opt)

	stretched := translated(f, geom.Vec3{})
	stretched.Pos[1].X += 1e-3 // ≈ half a displacement step: a real geometry change
	if k, _ := Fingerprint(stretched, opt); k == k0 {
		t.Error("stretched geometry kept the key")
	}
	heavy := translated(f, geom.Vec3{})
	heavy.Els = []constants.Element{constants.S, constants.H, constants.H}
	if k, _ := Fingerprint(heavy, opt); k == k0 {
		t.Error("species change kept the key")
	}

	c := chiralFragment()
	kc, _ := Fingerprint(c, opt)
	if km, _ := Fingerprint(mirrored(c), opt); km == kc {
		t.Error("mirror image of a chiral fragment kept the key")
	}

	// Every physics knob of JobOptions must move the key (key-isolation:
	// a store populated at one setting never serves another).
	knobs := map[string]func(*hessian.JobOptions){
		"Step":             func(o *hessian.JobOptions) { o.Step *= 2 },
		"SkipAlpha":        func(o *hessian.JobOptions) { o.SkipAlpha = !o.SkipAlpha },
		"SCF.Tol":          func(o *hessian.JobOptions) { o.SCF.Tol *= 10 },
		"SCF.MaxIter":      func(o *hessian.JobOptions) { o.SCF.MaxIter++ },
		"SCF.Mixing":       func(o *hessian.JobOptions) { o.SCF.Mixing += 0.01 },
		"SCF.Smearing":     func(o *hessian.JobOptions) { o.SCF.Smearing += 0.001 },
		"SCF.Field":        func(o *hessian.JobOptions) { o.SCF.Field.Z = 1e-4 },
		"DFPT.Coulomb":     func(o *hessian.JobOptions) { o.DFPT.Coulomb++ },
		"DFPT.GridSpacing": func(o *hessian.JobOptions) { o.DFPT.GridSpacing *= 1.5 },
		"DFPT.GridMargin":  func(o *hessian.JobOptions) { o.DFPT.GridMargin += 0.5 },
		"DFPT.BatchSide":   func(o *hessian.JobOptions) { o.DFPT.BatchSide++ },
	}
	for name, mutate := range knobs {
		o := hessian.DefaultJobOptions()
		mutate(&o)
		if k, _ := Fingerprint(f, o); k == k0 {
			t.Errorf("JobOptions knob %s kept the key", name)
		}
	}
	// Warm-start data changes the path to a converged result, never the
	// result's address.
	warm := hessian.DefaultJobOptions()
	warm.SCF.InitDeltaQ = []float64{-0.4, 0.2, 0.2}
	warm.DFPT.InitP1[0] = linalg.Identity(6)
	if k, _ := Fingerprint(f, warm); k != k0 {
		t.Error("warm-start data (InitDeltaQ, InitP1) moved the key")
	}
}

// TestKeyFieldDisablesRotation: an external field breaks isotropy, so
// rotated copies must stop sharing keys (translation dedup still works).
func TestKeyFieldDisablesRotation(t *testing.T) {
	f := waterFragment()
	opt := hessian.DefaultJobOptions()
	opt.SCF.Field = geom.Vec3{Z: 1e-4}
	k0, fr := Fingerprint(f, opt)
	if fr.Rotate {
		t.Fatal("field run kept a rotation-canonical frame")
	}
	if k, _ := Fingerprint(rotated(f, geom.Vec3{}, geom.Vec3{X: 1}, math.Pi/3), opt); k == k0 {
		t.Error("rotated copy kept the key under an external field")
	}
	if k, _ := Fingerprint(translated(f, geom.Vec3{X: 4}), opt); k != k0 {
		t.Error("translated copy lost the key under an external field")
	}
}

// TestKeyDegenerateGeometries: single atoms and collinear chains have no
// canonical orientation; they still fingerprint (translation-only) and
// distinct chains stay distinct.
func TestKeyDegenerateGeometries(t *testing.T) {
	single := &fragment.Fragment{Els: []constants.Element{constants.O}, Pos: []geom.Vec3{{X: 3}}}
	k1, fr1 := Fingerprint(single, hessian.DefaultJobOptions())
	if fr1.Rotate {
		t.Fatal("single atom got a rotation frame")
	}
	k2, _ := Fingerprint(translated(single, geom.Vec3{Y: 9}), hessian.DefaultJobOptions())
	if k1 != k2 {
		t.Error("translated single atom lost the key")
	}
	chain := &fragment.Fragment{
		Els: []constants.Element{constants.H, constants.H, constants.H},
		Pos: []geom.Vec3{{}, {X: 1}, {X: 2}},
	}
	longer := &fragment.Fragment{
		Els: []constants.Element{constants.H, constants.H, constants.H},
		Pos: []geom.Vec3{{}, {X: 1}, {X: 2.5}},
	}
	kc, frc := Fingerprint(chain, hessian.DefaultJobOptions())
	if frc.Rotate {
		t.Fatal("collinear chain got a rotation frame")
	}
	if kl, _ := Fingerprint(longer, hessian.DefaultJobOptions()); kl == kc {
		t.Error("different collinear chains share a key")
	}
}

// TestKeySolverTagTouchesOnlyGridMode pins the reach of the Poisson solver
// tag: it is hashed for grid-mode jobs and for no other, so bumping it moves
// grid-mode keys only; and the grid-mode key recorded on the commit before
// the tag existed (the CG solver) is not today's, so no CG-era record can be
// served to the direct solver.
func TestKeySolverTagTouchesOnlyGridMode(t *testing.T) {
	const gridKeyBeforeTag = "46fe0c3247a5da97912afeee8e3dd06d6f61d58aacdb8f7b0c4c8fd6aef45a27"
	opt := hessian.DefaultJobOptions()
	if b := appendJobFingerprint(nil, opt); bytes.Contains(b, []byte(poisson.SolverTag)) {
		t.Error("a γ-mode job hashes the Poisson solver tag")
	}
	opt.SkipAlpha = true
	if b := appendJobFingerprint(nil, opt); bytes.Contains(b, []byte(poisson.SolverTag)) {
		t.Error("a pure-Hessian job hashes the Poisson solver tag")
	}
	opt = hessian.DefaultJobOptions()
	opt.DFPT.Coulomb = dfpt.GridCoulomb
	if b := appendJobFingerprint(nil, opt); !bytes.HasSuffix(b, []byte(poisson.SolverTag)) {
		t.Error("a grid-mode job does not hash the Poisson solver tag")
	}
	if k, _ := Fingerprint(waterFragment(), opt); k.String() == gridKeyBeforeTag {
		t.Error("grid-mode key still equals the key of the CG solver's records")
	}
}

// TestKeyEngineVersionTouchesEveryKey is the twin for the general fence:
// hessian.EngineVersion is hashed for every job — γ mode, grid mode and
// pure-Hessian runs alike — so bumping it moves every key; and the keys
// earlier engines gave this fragment — the one before the version was hashed
// (linear response mixing, fully bisected Fermi level), engine/2 (Pulay
// charge loop from the first step, full mixer history), engine/3 (Pulay loop
// on the γ-mode response), engine/4 (Löwdin orthogonalization, math.Hypot
// in the QL rotations, unpaired displacements), engine/5 (finite-difference
// chord matrix, no intraband response) engine/6 (finite-difference dipole
// and polarizability derivatives in γ mode), engine/7 (grid mode's Pulay
// response loop), engine/8 (finite-difference Hessians from 6N displaced
// SCF solves), engine/9 (grid mode's ∂α, Hessian and ∂μ from 6N displaced
// SCF + grid solves), engine/10 (−Step displaced solves started from their
// +Step partners' predictor), engine/11 (nuclear responses and Hessian
// contracted through dense n×n matrices per coordinate), engine/12 (each
// γ-kernel response closing its charges on its own, P⁽¹⁾ rebuilt from a dense
// H⁽¹⁾; the last qfkey/v2 keys) and engine/13 (the Pulay charge loop, a chord
// step only in displaced solves); the constants were recorded on those commits
// — are not today's, so none of their records can be served to this engine.
func TestKeyEngineVersionTouchesEveryKey(t *testing.T) {
	grid, hessOnly := hessian.DefaultJobOptions(), hessian.DefaultJobOptions()
	grid.DFPT.Coulomb = dfpt.GridCoulomb
	hessOnly.SkipAlpha = true
	for _, tc := range []struct {
		name       string
		keysBefore [13]string // unversioned engine, engine/2, …, engine/13
		opt        hessian.JobOptions
	}{
		{"γ mode", [13]string{"f5191d75104962f781428508a5c936bf4a14e2bb68f911d7bf75554df7af00b4",
			"cdb10dbd19d277c77d60f582f78e1eae186b3852e9e22b2eece8f69b560d448d",
			"92c4619cfa4945bc1cb81704a8868711cc1cd81dba45c3a85c24019fd8f32e15",
			"63d04430a8e6bf30508d33c4bb36c68cbe0b36e9774f206ca410cfa84f3f4709",
			"c1c701d6c146d747f54a135504a7cb3d8a5c3acddbb3ce1db2cdd5632eb20c5e",
			"c445fb445d27d0f3a4acd598c3dbeb10e0de1e9cdf7e478d5de70b23cdad8693",
			"92b98e909870c5820df76f9550f4fcd6b3e33e254787b5a18c865e728e332d60",
			"0f050c8b37ec09e0e67fb242a1207b2c7b1006a2b856a378a688696b7aa18494",
			"4c43acaaf08cae8d14cbb4136b1c3fa0e4318ed50746c8ef6dc20bcdc83e209b",
			"76b9d77f33b866d7e37f50928ab8d14a36993f012ffd68741ea243642fba7f21",
			"a5e6823b4c1c4b1183eb701c48fc77e814add329f097b46f4e0ddf6a9360db1e",
			"027c5cafb81cb932a8cfb2689c472eb91af6ac4535637eab6789732f8af83b4b",
			"1c3ffd8149675913e1729cc8d546b6af776151d1a4e929ec5797a5abf03d5cf7"}, hessian.DefaultJobOptions()},
		{"grid mode", [13]string{"d06d326b4c6b3d6268b8331c7d1a5621bbe3fc82420fc891201208327d3a878e",
			"8e7e74e50a712f8a737503fa1a839a07c19683df075c30863e1dae3f03f73e3d",
			"a623e9f8b379c9cae5df7586cf10620cf532703b90c3210b178fcef420102d70",
			"9c04eabfa80c467bd18f321fc0437a4458b303d9abb87f671f50dcb8a2eae654",
			"2b5cfe268f901258b167f54e54e822a2fb8927212b923ecedc224e9eac534cd6",
			"d0a81331ed33a184066f29ff2f6c9ef9db9eace277fb893e6355d27252c2a6b7",
			"63fd4ed8b9b6bfdc5cd301788f702d034cfd4c36d0208db6bf1f1e7650095771",
			"3b2e260654ea09cf5de14440923e4d92697701ad662e49004a37b511cd8ccc37",
			"1a606ae92c961368f8e1c2da93220ba91c415da07c8941ce37e96a4d5bd88915",
			"1f136925010a19dd855203879e005448a7844743cc813bc6d1bec8d9ab90fb56",
			"e7d21e8af2fb86f544ba706b0008d67d6ce5410b7d459a1fddfacb5a63bbdc45",
			"9a830109e83b7344acfb7cf1d7dbda1009224b54d8d850405048c49b1f86b692",
			"869b997cb6e2d8a9c9304361602324a86519b1d7ebe43f715110d3d098cead3d"}, grid},
		{"pure Hessian", [13]string{"dc48bfda25047caa734ddf81879b5d15aa852bc24f6226b2db216218229883a0",
			"fbe2d1037acde98f416c9a3743a790703a50be9b8ebf600a16fb672b764fada6",
			"1634bbf88d83d794b233c26a55597349154280fdffa0fa3e2a10f33f7888489f",
			"49b5c275f0493cd6ec0958612dfc02b8cc520428081d53d9f70350ab045ca85d",
			"ca571944dec61fb81ad7f1ecdea19f7df3d13c9b840645b91b06ad33f64233cc",
			"5cf966edef7ac3080bf07ed29601c0b9e7bc56929145bf1a030c6644db6a9a4d",
			"f1e9826f524f9e37d698542a4a78e4fe86e4286424ef5a1a81ddb10acd2cec36",
			"f00a73d33c88ec3b9040126017905ee5d91bfeec20a409594aaf48ef4e12dc52",
			"17b30f5ce4eae32d94076c16bd886e1363b47b8d4e754cba42de0fc522f8f93a",
			"f3bf9807ff7ac7fdf45bf7c14e89e56cfba6c09e552222cc0da1dc47c030eb77",
			"1e77ede827709e183b382b37d16fd247b24641569776321d50209afd377a8611",
			"f46bfe6e63adc85f977b69d8e206766d2860edcca5d45e612b9f0c64ffcb1a2a",
			"9b839523a8f857b524db367312ee0c296f86d38fad68766554b795f53b59512c"}, hessOnly},
	} {
		if b := appendJobFingerprint(nil, tc.opt); bytes.Count(b, []byte(hessian.EngineVersion)) != 1 {
			t.Errorf("%s: the job fingerprint does not hash the engine version exactly once", tc.name)
		}
		k, _ := Fingerprint(waterFragment(), tc.opt)
		for _, before := range tc.keysBefore {
			if k.String() == before {
				t.Errorf("%s: key still equals the key of an earlier engine's records", tc.name)
			}
		}
	}
}

// TestKeyFingerprintVersionFence: the keys the qfkey/v1 layout — the one
// whose job section still carried the DFPT strength-reduction flag byte — gave this
// fragment under the default γ-mode and grid-mode jobs, recorded on the last
// commit that wrote it, are not today's, so no v1 record can be served to a
// binary whose physics bytes no longer carry that flag.
func TestKeyFingerprintVersionFence(t *testing.T) {
	grid := hessian.DefaultJobOptions()
	grid.DFPT.Coulomb = dfpt.GridCoulomb
	for _, tc := range []struct {
		name     string
		keyForV1 string
		opt      hessian.JobOptions
	}{
		{"γ mode", "fea95d2d536237c6b4a084f06361dd3e5149f6085a27b309b8eb79c88ee7e158", hessian.DefaultJobOptions()},
		{"grid mode", "c86e3fee741fc74c6a49324d97a5271fd02cb2b80e4e16da6dff14b2b47baa65", grid},
	} {
		if k, _ := Fingerprint(waterFragment(), tc.opt); k.String() == tc.keyForV1 {
			t.Errorf("%s: key still equals the qfkey/v1 key", tc.name)
		}
	}
}

// TestKeySurvivesPhysicsRoundTrip: the options a peer rebuilds from the
// physics bytes (hessian.ParsePhysics — what a cluster worker does with a
// LEASE) key every fragment exactly as the options they were written from,
// whatever execution-only state those carried.
func TestKeySurvivesPhysicsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 50; i++ {
		opt := hessian.DefaultJobOptions()
		opt.Step *= 1 + rng.Float64()
		opt.SkipAlpha = rng.Intn(2) == 1
		opt.SCF.MaxIter = 1 + rng.Intn(1000)
		opt.SCF.Smearing *= 1 + rng.Float64()
		if rng.Intn(2) == 1 {
			opt.SCF.Field = geom.Vec3{X: rng.NormFloat64() * 1e-3}
		}
		opt.DFPT.Coulomb = dfpt.CoulombMode(rng.Intn(2))
		opt.DFPT.GridSpacing *= 1 + rng.Float64()
		opt.SCF.InitDeltaQ = []float64{rng.Float64(), 0, 0}
		back, err := hessian.ParsePhysics(opt.AppendPhysics(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*fragment.Fragment{waterFragment(), chiralFragment()} {
			k1, fr1 := Fingerprint(f, opt)
			k2, fr2 := Fingerprint(f, back)
			if k1 != k2 || !reflect.DeepEqual(fr1, fr2) {
				t.Fatalf("draw %d: key %s became %s across the physics round trip", i, k1, k2)
			}
		}
	}
}

func TestKeyStringRoundtrip(t *testing.T) {
	k, _ := Fingerprint(waterFragment(), hessian.DefaultJobOptions())
	back, err := ParseKey(k.String())
	if err != nil || back != k {
		t.Fatalf("ParseKey(String) = %v, %v; want original key", back, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

// TestClassify pins the content-class table every dedup consumer works from:
// classes partition the fragment list, each is represented by its lowest
// index, rigid motion of any member leaves the table unchanged, and a change
// of job options yields disjoint keys.
func TestClassify(t *testing.T) {
	w, c := waterFragment(), chiralFragment()
	shift := geom.Vec3{X: 4, Y: -9, Z: 2.5}
	spin := func(f *fragment.Fragment, theta float64) *fragment.Fragment {
		return rotated(f, geom.Vec3{X: 1, Y: 2, Z: 3}, geom.Vec3{X: 1, Y: 1, Z: -2}, theta)
	}
	cases := []struct {
		name    string
		frags   []*fragment.Fragment
		reps    []int
		members map[int][]int
	}{
		{"empty", nil, nil, map[int][]int{}},
		{"all distinct", []*fragment.Fragment{w, c, mirrored(c)}, []int{0, 1, 2},
			map[int][]int{0: {0}, 1: {1}, 2: {2}}},
		{"all one class", []*fragment.Fragment{w, translated(w, shift), spin(w, 0.7), spin(translated(w, shift), 2.9)},
			[]int{0}, map[int][]int{0: {0, 1, 2, 3}}},
		{"interleaved", []*fragment.Fragment{c, w, spin(c, 1.3), mirrored(c), translated(w, shift), spin(mirrored(c), 0.4), c},
			[]int{0, 1, 3}, map[int][]int{0: {0, 2, 6}, 1: {1, 4}, 3: {3, 5}}},
	}
	opt := hessian.DefaultJobOptions()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frags := make([]fragment.Fragment, len(tc.frags))
			for i, f := range tc.frags {
				frags[i] = *f
			}
			cls := Classify(frags, opt)
			if !reflect.DeepEqual(cls.Reps, tc.reps) {
				t.Fatalf("Reps = %v, want %v", cls.Reps, tc.reps)
			}
			seen := make([]bool, len(frags))
			for i, ms := range cls.Members {
				if want := tc.members[i]; !reflect.DeepEqual(ms, want) {
					t.Fatalf("Members[%d] = %v, want %v", i, ms, want)
				}
				for _, m := range ms {
					if seen[m] {
						t.Fatalf("fragment %d is a member of two classes", m)
					}
					seen[m] = true
					if cls.Keys[m] != cls.Keys[i] {
						t.Fatalf("member %d carries a different key than its representative %d", m, i)
					}
				}
			}
			for i := range frags {
				if !seen[i] {
					t.Fatalf("fragment %d belongs to no class", i)
				}
				if k, fr := Fingerprint(&frags[i], opt); k != cls.Keys[i] || fr != cls.Frames[i] {
					t.Fatalf("fragment %d: Classify disagrees with Fingerprint", i)
				}
			}

			// Rigid motion of any one member changes frames, never classes.
			for i := range frags {
				moved := append([]fragment.Fragment(nil), frags...)
				moved[i] = *spin(translated(&frags[i], shift), 1.9)
				got := Classify(moved, opt)
				if !reflect.DeepEqual(got.Reps, cls.Reps) || !reflect.DeepEqual(got.Members, cls.Members) ||
					!reflect.DeepEqual(got.Keys, cls.Keys) {
					t.Fatalf("rigid motion of fragment %d changed the class table", i)
				}
			}

			// Different physics: same grouping, no key in common.
			other := opt
			other.Step *= 2
			got := Classify(frags, other)
			if !reflect.DeepEqual(got.Members, cls.Members) {
				t.Fatal("job options changed the grouping of identical geometries")
			}
			for i := range frags {
				for j := range frags {
					if got.Keys[i] == cls.Keys[j] {
						t.Fatalf("fragment %d under Step×2 shares a key with fragment %d under the default job", i, j)
					}
				}
			}
		})
	}
}
