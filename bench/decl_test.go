package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestWriteBenchmarkDecl regenerates ../BENCHMARK.json from the harness's
// tables when BENCH_WRITE_DECL=1, so the declaration is never edited by
// hand: `BENCH_WRITE_DECL=1 go test ./bench -run TestWriteBenchmarkDecl`.
func TestWriteBenchmarkDecl(t *testing.T) {
	if os.Getenv("BENCH_WRITE_DECL") != "1" {
		t.Skip("set BENCH_WRITE_DECL=1 to rewrite ../BENCHMARK.json")
	}
	blob, err := json.MarshalIndent(declFromTables(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkDeclMatchesTables keeps BENCHMARK.json and the harness's own
// tables in step, and holds every name and unit to the declared grammar.
func TestBenchmarkDeclMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(declFromTables())
	if err := json.Unmarshal(wb, &want); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ = json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("BENCHMARK.json differs from the harness tables; regenerate with BENCH_WRITE_DECL=1\n got %s\nwant %s", gb, wb)
	}

	decl, err := readBenchmarkDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the [A-Za-z0-9_.-]+ rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range decl.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is declared but the harness has no such workload", w.Name)
		}
	}
	hasSetup := false
	for _, m := range decl.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range decl.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g > %g", o.Name, o.Bound, m.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range decl.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", decl.Paths)
	}
}

// declFromTables renders the harness's own tables in BENCHMARK.json's
// shape; a test holds the committed file to it.
func declFromTables() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// TestReadmeNamesEverything keeps the README dictionary in step with the
// tables: every workload and metric name appears in it.
func TestReadmeNamesEverything(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(blob)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !strings.Contains(readme, "`"+n+"`") {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}
