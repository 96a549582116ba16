package main

import (
	"math"
	"testing"

	"qframan/internal/raman"
	"qframan/internal/structure"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, q3, ok := quartiles([]float64{1, 2}); !ok || q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g, %v; want 0.75, 2.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if q1, q3, _ := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of five = %g, %g; want 1.5, 12", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

// TestTailPercentile pins the "highest percentile with at least ten samples
// beyond it" rule.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{9, 0, 0, false},
		{39, 0, 0, false}, // p75 → rank 30, 9 beyond
		{40, 75, 30, true},
		{48, 75, 36, true},
		{100, 90, 90, true},  // p95 → rank 95, 5 beyond
		{200, 95, 190, true}, // p99 → rank 198, 2 beyond
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p || v != c.want {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, p, v, ok, c.p, c.want, c.ok)
		}
	}
}

// TestSpanSelfTime: self = duration − the part of the interval the children
// cover, overlapping children counted once, children clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "frag", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "frag", Start: 3, End: 7},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "frag", Start: 9, End: 12}, // runs past the parent
		{ID: 5, Parent: 2, Name: "kernel", Start: 2, End: 3},
	}
	total, self := spanTotals(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if !near(total["run"], 10) || !near(self["run"], 10-(6+1)) {
		t.Errorf("run: total %g self %g, want 10 and 3", total["run"], self["run"])
	}
	if !near(total["frag"], 4+4+3) || !near(self["frag"], 3+4+3) {
		t.Errorf("frag: total %g self %g, want 11 and 10", total["frag"], self["frag"])
	}
	if !near(self["kernel"], 1) {
		t.Errorf("kernel self %g, want 1", self["kernel"])
	}
	if countSpans(spans, "frag") != 3 {
		t.Error("countSpans")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.setRep(3)
	if id := tr.begin(0, "x"); id != 0 {
		t.Errorf("nil tracer began span %d", id)
	}
	tr.end(0)
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
	live := newTracer("w")
	live.setRep(2)
	id := live.begin(0, "a")
	live.end(id)
	s := live.snapshot()
	if len(s) != 1 || s[0].Rep != 2 || s[0].Workload != "w" || s[0].End < s[0].Start {
		t.Errorf("span %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "spectrum_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "hits", Better: "higher", Bound: 0.10}
	tight := func(m float64) side { return summarize([]float64{m * 0.99, m, m, m * 1.01}) }
	noisy := func(m float64) side { return summarize([]float64{m * 0.7, m, m, m * 1.3}) }
	cases := []struct {
		name string
		a, b side
		def  metricDef
		want string
	}{
		{"same", tight(1), tight(1), lower, verdictOK},
		{"within bound", tight(1), tight(1.09), lower, verdictOK},
		{"beyond bound", tight(1), tight(1.2), lower, verdictWorse},
		{"better", tight(1), tight(0.5), lower, verdictOK},
		{"higher is better, dropped", tight(1), tight(0.8), higher, verdictWorse},
		{"higher is better, rose", tight(1), tight(1.5), higher, verdictOK},
		{"noisy parent", noisy(1), tight(1.2), lower, verdictUnresolved},
		{"noisy change", tight(1), noisy(1), lower, verdictUnresolved},
		{"one run each", summarize([]float64{1}), summarize([]float64{2}), lower, verdictUnresolved},
		{"no bound", tight(1), tight(9), metricDef{Name: "layer", Better: "lower"}, verdictInfo},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestGeneratorDeterminism: equal seeds give byte-identical WriteText,
// different seeds give different coordinates but the same sizes, and a walk
// moves exactly its scheduled molecules.
func TestGeneratorDeterminism(t *testing.T) {
	text := func(gen func(int64) (*structure.System, error)) func(int64) (string, int, error) {
		return func(seed int64) (string, int, error) {
			sys, err := gen(seed)
			if err != nil {
				return "", 0, err
			}
			txt, err := systemText(sys)
			return txt, sys.NumAtoms(), err
		}
	}
	gens := map[string]func(int64) (string, int, error){
		"waterbox":   text(func(s int64) (*structure.System, error) { return genWaterBox(wbNX, wbNY, wbNZ, s) }),
		"two-waters": text(genTwoWaters),
		"peptide":    text(genSolvatedPeptide),
	}
	for name, g := range gens {
		a, na, err := g(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _, _ := g(7)
		c, nc, _ := g(8)
		if a != b {
			t.Errorf("%s: same seed, different text", name)
		}
		if a == c {
			t.Errorf("%s: different seeds, same text", name)
		}
		if na != nc {
			t.Errorf("%s: atom count depends on the seed (%d vs %d)", name, na, nc)
		}
	}

	base, err := genWaterBox(2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalk(base, 4, 2, 5)
	prev := base
	for step := 0; step < 4; step++ {
		next, err := w.next()
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range base.Waters {
			scheduled := mi/4 == step%2
			changed := false
			for i := m.First; i < m.First+m.Count; i++ {
				if next.Atoms[i].Pos != prev.Atoms[i].Pos {
					changed = true
				}
				if d := next.Atoms[i].Pos.Sub(base.Atoms[i].Pos); math.Abs(d.X) > walkAmp+1e-6 || math.Abs(d.Y) > walkAmp+1e-6 || math.Abs(d.Z) > walkAmp+1e-6 {
					t.Fatalf("step %d: atom %d drifted %v from the base", step, i, d)
				}
			}
			if changed != scheduled {
				t.Errorf("step %d molecule %d: changed=%v scheduled=%v", step, mi, changed, scheduled)
			}
		}
		prev = next
	}
}

func TestReferenceChecks(t *testing.T) {
	opt := raman.Options{FreqMin: 0, FreqMax: 100, FreqStep: 5}
	mk := func(peaks ...int) *raman.Spectrum {
		s := &raman.Spectrum{}
		for x := 0.0; x <= 100; x += 5 {
			s.Freq = append(s.Freq, x)
			s.Intensity = append(s.Intensity, 0.01)
		}
		for k, p := range peaks {
			s.Intensity[p] = 1 - 0.1*float64(k)
		}
		return s
	}
	ref := mk(4, 10, 15)
	if err := checkInvariants(ref, opt); err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstRef(mk(4, 10, 15), ref, opt.FreqStep); err != nil {
		t.Errorf("identical spectrum rejected: %v", err)
	}
	if err := checkAgainstRef(mk(4, 10, 18), ref, opt.FreqStep); err == nil {
		t.Error("a peak three steps off passed")
	}
	bad := mk(4)
	bad.Intensity[7] = math.NaN()
	if checkInvariants(bad, opt) == nil {
		t.Error("NaN passed")
	}
	neg := mk(4)
	neg.Intensity[7] = -1
	if checkInvariants(neg, opt) == nil {
		t.Error("negative intensity passed")
	}
	edge := mk(0)
	if checkInvariants(edge, opt) == nil {
		t.Error("maximum on the axis edge passed the band check")
	}
	if checkInvariants(&raman.Spectrum{Freq: []float64{1}, Intensity: []float64{1}}, opt) == nil {
		t.Error("wrong axis passed")
	}

	// Reference files round-trip bit-exactly; a missing file is not an error.
	path := refPath(t.TempDir(), "w", 3)
	if got, err := readRef(path); got != nil || err != nil {
		t.Fatalf("missing ref: %v, %v", got, err)
	}
	ref.Intensity[3] = 1.0 / 3
	if err := writeRef(path, ref); err != nil {
		t.Fatal(err)
	}
	got, err := readRef(path)
	if err != nil || !bitEqual(got, ref) {
		t.Errorf("reference did not round-trip: %v", err)
	}

	c := &checker{opt: opt}
	c.delivered("ok", ref, nil, ref, refMinCosine)
	c.delivered("bad", bad, nil, nil, 0)
	c.invariant(false, "broken %d", 1)
	if c.attempted != 3 || c.failed != 2 || len(c.problems) != 2 {
		t.Errorf("checker: %d attempted, %d failed, %v", c.attempted, c.failed, c.problems)
	}
}

func TestKernelGroups(t *testing.T) {
	for name, want := range map[string]string{
		"gemm_nn": "linalg", "gemm_batch": "linalg", "gemv_t": "linalg", "dot": "linalg",
		"poisson_axpy": "poisson", "poisson_dst": "poisson", "grid_scatter": "grid",
		"lanczos_vec": "lanczos", "spmv": "lanczos", "scf_forces": "other", "new_kernel": "other",
	} {
		if got := kernelGroup(name); got != want {
			t.Errorf("kernelGroup(%s) = %s, want %s", name, got, want)
		}
	}
	// Every group the mapping can produce has a declared metric.
	for _, g := range []string{"linalg", "poisson", "grid", "lanczos", "other", "total"} {
		found := false
		for _, m := range perLayer {
			if m.Name == "par.kernel_s."+g {
				found = true
			}
		}
		if !found {
			t.Errorf("no per-layer metric for kernel group %s", g)
		}
	}
}

func TestParseChild(t *testing.T) {
	out := "noise\ndetail {\"workload\":\"w\",\"seed\":4,\"atoms\":9}\n" +
		"{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"spectrum_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n"
	rec, err := parseChild(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Result.Correct || rec.Result.Attempted != 3 || rec.Result.Metrics["spectrum_s"].Value != 1.5 ||
		rec.Detail.Workload != "w" || rec.Detail.Seed != 4 || rec.Detail.Atoms != 9 {
		t.Errorf("parsed %+v", rec)
	}
	if _, err := parseChild("no json here\n"); err == nil {
		t.Error("garbage parsed")
	}
	if _, err := parseChild(""); err == nil {
		t.Error("empty output parsed")
	}
}
