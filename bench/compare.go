package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparison of two result files against the bounds BENCHMARK.json fixes:
// the tool a change that claims a gain — and the benchmark's own noise
// check — is judged with.

// Verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metrics carry no bound
)

// benchmarkDecl is the part of BENCHMARK.json the harness reads.
type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkDecl(path string) (*benchmarkDecl, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// side is one file's samples of one (metric, workload) pair.
type side struct {
	n              int
	median, q1, q3 float64
	// spread is (q3 − q1) ÷ median; known is false below two samples.
	spread float64
	known  bool
}

func summarize(xs []float64) side {
	s := side{n: len(xs), median: median(xs)}
	if q1, q3, ok := quartiles(xs); ok && s.median != 0 {
		s.q1, s.q3, s.known = q1, q3, true
		s.spread = (q3 - q1) / s.median
		if s.spread < 0 {
			s.spread = -s.spread
		}
	}
	return s
}

// verdict judges B against A. A pair whose spread is unknown or wider than
// the bound on either side is unresolved, never "unchanged": the runs cannot
// tell a regression of that size from noise.
func verdict(a, b side, def metricDef) string {
	if def.Bound == 0 {
		return verdictInfo
	}
	if !a.known || !b.known || a.spread > def.Bound || b.spread > def.Bound {
		return verdictUnresolved
	}
	worse := b.median > a.median*(1+def.Bound)
	if def.Better == "higher" {
		worse = b.median < a.median*(1-def.Bound)
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (metric, workload) and returns the number
// of pairs judged worse.
func compareFiles(out io.Writer, pathA, pathB, declPath string) (int, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	if a.Traced != b.Traced {
		return 0, fmt.Errorf("%s is traced=%v, %s is traced=%v: compare like with like", pathA, a.Traced, pathB, b.Traced)
	}
	decl, err := readBenchmarkDecl(declPath)
	if err != nil {
		return 0, err
	}
	defs := decl.EndToEnd
	if a.Traced {
		defs = decl.PerLayer
	}
	fmt.Fprintf(out, "A = %s (commit %s, %d runs, nproc %d)\nB = %s (commit %s, %d runs, nproc %d)\n",
		pathA, a.Commit, a.Runs, a.Host.NProc, pathB, b.Commit, b.Runs, b.Host.NProc)
	fmt.Fprintf(out, "%-12s %-26s %-6s %12s %25s %12s %25s  %-22s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B/A (base A)", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, def := range defs {
			sa, sb := summarize(metricSamples(wa, def.Name)), summarize(metricSamples(wb, def.Name))
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			v := verdict(sa, sb, def)
			counts[v]++
			ratio := "n/a (A = 0)"
			if sa.median != 0 {
				ratio = fmt.Sprintf("%.3fx of %.4g %s", sb.median/sa.median, sa.median, def.Unit)
			}
			fmt.Fprintf(out, "%-12s %-26s %-6s %12.5g %25s %12.5g %25s  %-22s %6.2f  %s\n",
				wa.Name, def.Name, def.Unit, sa.median, quartileText(sa), sb.median, quartileText(sb), ratio, def.Bound, v)
		}
	}
	fmt.Fprintf(out, "%d ok, %d worse, %d unresolved (spread wider than the bound, or fewer than 2 runs)\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse], nil
}

func quartileText(s side) string {
	if !s.known {
		return fmt.Sprintf("n=%d", s.n)
	}
	return fmt.Sprintf("%.5g..%.5g (%.1f%%)", s.q1, s.q3, 100*s.spread)
}
