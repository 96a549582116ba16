package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"qframan/internal/raman"
)

// Output checks. Every delivered spectrum passes the invariants (sampled on
// the expected axis, finite, non-negative, a band inside the axis); the
// workload's reference spectrum — the one its warm-up repetition returns —
// is also compared against the committed bench/ref/<workload>-seed<n>.tsv
// when one exists. The comparison is a tolerance (cosine and peak
// positions), not a hash: a legitimate change of numerics (ROADMAP item 2)
// moves bits but must not move bands. The sha256 is printed for the cases
// where bit-identity is the question.

const (
	// refMinCosine and refPeaks are the reference tolerance: cosine
	// similarity at least 0.9999 and the five strongest peaks within one
	// FreqStep of a peak of the reference.
	refMinCosine = 0.9999
	refPeaks     = 5
	// walkMinCosine is the floor for a walk frame (traj-warm, serve-wave)
	// against the workload's reference spectrum. Every frame stays within
	// jitterAmp per axis of the base geometry, which moves the O–H bands by
	// tens of cm⁻¹ (cosines of 0.96–0.99 were observed): the floor only
	// says "the same bands", it is not a numerical tolerance.
	walkMinCosine = 0.90
)

// spectrumHash hashes a spectrum's intensity bits.
func spectrumHash(s *raman.Spectrum) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range s.Intensity {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// bitEqual reports whether two spectra carry identical intensity bits.
func bitEqual(a, b *raman.Spectrum) bool {
	if len(a.Intensity) != len(b.Intensity) {
		return false
	}
	for i := range a.Intensity {
		if math.Float64bits(a.Intensity[i]) != math.Float64bits(b.Intensity[i]) {
			return false
		}
	}
	return true
}

// checkInvariants verifies what must hold for any spectrum of a workload
// sampled with opt, whatever the seed.
func checkInvariants(s *raman.Spectrum, opt raman.Options) error {
	if s == nil {
		return fmt.Errorf("no spectrum")
	}
	want := int(math.Floor((opt.FreqMax-opt.FreqMin)/opt.FreqStep+1e-9)) + 1
	if len(s.Freq) != want || len(s.Intensity) != want {
		return fmt.Errorf("spectrum has %d/%d points, axis has %d", len(s.Freq), len(s.Intensity), want)
	}
	peak, at := 0.0, -1
	for i, v := range s.Intensity {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite intensity at %.0f cm-1", s.Freq[i])
		}
		if v < 0 {
			return fmt.Errorf("negative intensity %g at %.0f cm-1", v, s.Freq[i])
		}
		if v > peak {
			peak, at = v, i
		}
	}
	// Band presence: the strongest band is a maximum inside the axis, not
	// a tail running off either end.
	if at <= 0 || at >= want-1 {
		return fmt.Errorf("no band inside the axis (maximum %g at index %d of %d)", peak, at, want)
	}
	return nil
}

// cosine is raman.CosineSimilarity with a length guard instead of a panic.
func cosine(a, b *raman.Spectrum) float64 {
	if len(a.Intensity) != len(b.Intensity) {
		return 0
	}
	return raman.CosineSimilarity(a, b)
}

// strongestPeaks returns the frequencies of the n strongest local maxima.
func strongestPeaks(s *raman.Spectrum, n int) []float64 {
	type pk struct{ f, v float64 }
	var pks []pk
	for i := 1; i+1 < len(s.Intensity); i++ {
		if v := s.Intensity[i]; v > s.Intensity[i-1] && v >= s.Intensity[i+1] {
			pks = append(pks, pk{s.Freq[i], v})
		}
	}
	sort.SliceStable(pks, func(i, j int) bool { return pks[i].v > pks[j].v })
	if len(pks) > n {
		pks = pks[:n]
	}
	out := make([]float64, len(pks))
	for i, p := range pks {
		out[i] = p.f
	}
	return out
}

// checkAgainstRef applies the reference tolerance.
func checkAgainstRef(got, ref *raman.Spectrum, step float64) error {
	if c := cosine(got, ref); c < refMinCosine {
		return fmt.Errorf("cosine %.6f vs reference is below %.4f", c, refMinCosine)
	}
	have := strongestPeaks(got, len(got.Intensity))
	for _, f := range strongestPeaks(ref, refPeaks) {
		ok := false
		for _, g := range have {
			if math.Abs(f-g) <= step+1e-9 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("reference peak at %.0f cm-1 has no peak within %.0f cm-1", f, step)
		}
	}
	return nil
}

// refPath names the committed reference of a workload and seed.
func refPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, "ref", fmt.Sprintf("%s-seed%d.tsv", workload, seed))
}

// writeRef writes a reference spectrum (full precision, so a re-read is
// bit-exact).
func writeRef(path string, s *raman.Spectrum) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "# wavenumber_cm-1\tintensity")
	for i, x := range s.Freq {
		fmt.Fprintf(bw, "%.1f\t%.17g\n", x, s.Intensity[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRef reads a reference spectrum; a missing file returns (nil, nil).
func readRef(path string) (*raman.Spectrum, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &raman.Spectrum{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != 2 {
			return nil, fmt.Errorf("%s: want 2 tab-separated columns, got %q", path, line)
		}
		x, err1 := strconv.ParseFloat(cols[0], 64)
		y, err2 := strconv.ParseFloat(cols[1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: bad number in %q", path, line)
		}
		s.Freq = append(s.Freq, x)
		s.Intensity = append(s.Intensity, y)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// checker accumulates the verdicts of one run. attempted counts every
// delivered spectrum and every workload invariant examined; failed counts
// the ones that did not hold.
type checker struct {
	opt       raman.Options
	attempted int
	failed    int
	problems  []string
	// notes are observations worth printing that are not failures.
	notes []string
}

// note records an observation that does not fail the run.
func (c *checker) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// fail records one failed spectrum or invariant.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// delivered counts one attempted spectrum and checks it: the invariants
// always, and closeness to near (the workload's reference spectrum) with
// the given cosine floor when near is non-nil.
func (c *checker) delivered(label string, s *raman.Spectrum, err error, near *raman.Spectrum, floor float64) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	if err := checkInvariants(s, c.opt); err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	if near != nil {
		if cs := cosine(s, near); cs < floor {
			c.fail("%s: cosine %.6f vs the workload's reference spectrum is below %g", label, cs, floor)
		}
	}
}

// invariant examines one workload invariant that is not about a single
// spectrum.
func (c *checker) invariant(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}
