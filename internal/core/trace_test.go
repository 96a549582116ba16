package core

import (
	"bytes"
	"testing"

	"qframan/internal/obs"
	"qframan/internal/structure"
)

// TestGoldenTraceStructure is the golden trace check: a fixed-seed water
// run with tracing attached must export a Chrome trace that parses back to
// the exact span set, with intact parent links, the documented hierarchy
// (sched.run → frag → attempt → … → dfpt.cycle), and — the DFPT invariant
// the straggler analytics depend on — exactly four phase children per
// recorded cycle, in execution order n1, v1, h1, p1, tiling the cycle.
func TestGoldenTraceStructure(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(2)
	cfg := fastConfig()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	cfg.Sched.Obs = obs.NewScope(tr, reg)

	res, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans on a tiny run", tr.Dropped())
	}
	if res.SchedReport == nil || res.SchedReport.Stragglers == nil {
		t.Fatal("instrumented run did not attach a straggler summary")
	}

	// Export and re-read: the roundtrip is the schema validation — every
	// event must parse as a trace_event "X" entry with its id_/parent_ args.
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace does not parse back: %v", err)
	}
	if n := len(tr.Snapshot()); len(spans) != n {
		t.Fatalf("roundtrip lost spans: exported %d, read %d", n, len(spans))
	}

	byID := make(map[uint64]obs.SpanRecord, len(spans))
	children := make(map[uint64][]obs.SpanRecord)
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatalf("span %q has id 0", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %d (%q)", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	// Parent links are closed: no span points at an id outside the trace,
	// and each link matches the documented hierarchy.
	wantParent := map[string]map[string]bool{
		"frag":       {"sched.run": true},
		"attempt":    {"frag": true},
		"model":      {"attempt": true},
		"disp":       {"attempt": true},
		"scf":        {"attempt": true, "disp": true, "model": true}, // reference, displacement, calibration solve
		"dfpt":       {"attempt": true, "disp": true},
		"dfpt.dir":   {"dfpt": true},
		"dfpt.cycle": {"dfpt.dir": true},
		"store.get":  {"attempt": true},
		"store.put":  {"attempt": true},
		"n1":         {"dfpt.cycle": true},
		"v1":         {"dfpt.cycle": true},
		"h1":         {"dfpt.cycle": true},
		"p1":         {"dfpt.cycle": true},
	}
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%q) has dangling parent %d", s.ID, s.Name, s.Parent)
		}
		if want, constrained := wantParent[s.Name]; constrained && !want[parent.Name] {
			t.Fatalf("span %q nested under %q, want one of %v", s.Name, parent.Name, want)
		}
	}

	if counts["sched.run"] != 1 {
		t.Fatalf("got %d sched.run spans, want exactly 1", counts["sched.run"])
	}
	nf := len(res.Decomposition.Fragments)
	if counts["frag"] != nf {
		t.Fatalf("got %d frag spans for %d fragments", counts["frag"], nf)
	}
	if counts["attempt"] < nf {
		t.Fatalf("got %d attempt spans, want ≥ %d (one per fragment)", counts["attempt"], nf)
	}
	if counts["dfpt.cycle"] == 0 || counts["scf"] == 0 {
		t.Fatal("trace has no engine spans — instrumentation not reaching the solvers")
	}

	// The golden DFPT invariant: every recorded cycle carries exactly the
	// four phases, each tagged cat="phase", tiling the cycle span.
	phaseOrder := []string{"n1", "v1", "h1", "p1"}
	for _, s := range spans {
		switch s.Name {
		case "dfpt.cycle":
			kids := children[s.ID]
			if len(kids) != 4 {
				t.Fatalf("dfpt.cycle %d has %d children, want exactly 4 phases", s.ID, len(kids))
			}
			// Phases tile the cycle in order. The µs-granular Chrome
			// timestamps round each boundary by up to ~1ns, so allow a
			// few-ns slop, never a reordering.
			const slop = 16 // ns
			at := s.Start
			for i, kid := range kids {
				if kid.Name != phaseOrder[i] || kid.Cat != "phase" {
					t.Fatalf("dfpt.cycle child %d is %s/%s, want phase/%s", i, kid.Cat, kid.Name, phaseOrder[i])
				}
				if d := kid.Start - at; d < -slop || d > slop {
					t.Fatalf("phase %s starts at %v, want %v (phases must tile the cycle)", kid.Name, kid.Start, at)
				}
				at = kid.Start + kid.Dur
			}
			if at > s.Start+s.Dur+slop {
				t.Fatalf("phases overrun their cycle: end %v > cycle end %v", at, s.Start+s.Dur)
			}
		case "n1", "v1", "h1", "p1":
			if s.Cat != "phase" {
				t.Fatalf("phase span %s has cat %q, want \"phase\"", s.Name, s.Cat)
			}
		}
	}
	if counts["n1"] != counts["dfpt.cycle"] || counts["p1"] != counts["dfpt.cycle"] {
		t.Fatalf("phase/cycle counts disagree: %d cycles, %d n1, %d p1",
			counts["dfpt.cycle"], counts["n1"], counts["p1"])
	}

	// The metrics registry and the trace must tell the same story.
	if got := reg.Counter(obs.MetricDFPTCycles).Value(); got != int64(counts["dfpt.cycle"]) {
		t.Fatalf("dfpt_cycles_total=%d but trace has %d dfpt.cycle spans", got, counts["dfpt.cycle"])
	}
	if got := reg.Counter(obs.MetricSCFSolves).Value(); got != int64(counts["scf"]) {
		t.Fatalf("scf_solves_total=%d but trace has %d scf spans", got, counts["scf"])
	}
	// Every charge loop reports its Newton steps, and ends on an evaluation
	// that takes none.
	for _, s := range spans {
		if s.Name != "scf" {
			continue
		}
		iters, _ := s.Arg("iters")
		steps, ok := s.Arg("newton_steps")
		if !ok || steps < 0 || steps >= iters {
			t.Fatalf("scf span carries newton_steps=%d (present %v) for %d iterations", steps, ok, iters)
		}
	}

	// The spectrum span records its route. The run's two dimers have 36
	// coordinates, no more than fastConfig's K = 40, so the exact route ran:
	// one exact solve counted, no Lanczos counter moved.
	if counts["spectrum"] != 1 {
		t.Fatalf("got %d spectrum spans, want exactly 1", counts["spectrum"])
	}
	for _, s := range spans {
		if s.Name != "spectrum" {
			continue
		}
		if route, ok := s.Arg("route"); !ok || route != obs.SpectrumRouteExact {
			t.Fatalf("spectrum span carries route=%d (present %v), want the exact route", route, ok)
		}
		if steps, ok := s.Arg("lanczos_steps"); ok {
			t.Fatalf("exact-route spectrum span carries lanczos_steps=%d", steps)
		}
	}
	if got := reg.Counter(obs.MetricSpectrumExact).Value(); got != 1 {
		t.Fatalf("spectrum_exact_total=%d, want 1", got)
	}
	if got := reg.Counter(obs.MetricLanczosSteps).Value(); got != 0 {
		t.Fatalf("exact route moved lanczos_steps_total to %d", got)
	}
	checkLanczosSpectrumSpan(t, res, cfg)

	// And the trace alone must reproduce the runtime's straggler analytics:
	// AnalyzeTrace is what qfstats -trace runs on the exported file.
	sum, err := obs.AnalyzeTrace(spans, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.PerCycle {
		t.Fatal("AnalyzeTrace should report per-cycle phase quantiles")
	}
	if got := sum.Phases[obs.PhaseN1].Count; got != counts["dfpt.cycle"] {
		t.Fatalf("AnalyzeTrace saw %d n1 samples, trace has %d cycles", got, counts["dfpt.cycle"])
	}
	if sum.Fragments != nf {
		t.Fatalf("AnalyzeTrace saw %d fragments, run had %d", sum.Fragments, nf)
	}
	if len(sum.TopK) == 0 || len(res.SchedReport.Stragglers.TopK) == 0 {
		t.Fatal("empty straggler top-K")
	}
	// Both tables must name real fragments; cycle counts per fragment come
	// from the same spans, so they agree exactly even where wall-clock
	// rankings may differ between the runtime ledger and the trace view.
	cyclesByFrag := make(map[int]int64)
	for _, row := range res.SchedReport.Stragglers.TopK {
		cyclesByFrag[row.Frag] = row.Cycles
	}
	for _, row := range sum.TopK {
		if row.Frag < 0 || row.Frag >= nf {
			t.Fatalf("trace-derived straggler row names fragment %d of %d", row.Frag, nf)
		}
		if want, ok := cyclesByFrag[row.Frag]; ok && row.Cycles != want {
			t.Fatalf("fragment %d: trace says %d cycles, runtime says %d", row.Frag, row.Cycles, want)
		}
	}
}

// checkLanczosSpectrumSpan solves the run's spectrum again at K = 20 < 36
// coordinates, on the Lanczos route: its span carries the route and the
// solver's counts, and they agree with the registry.
func checkLanczosSpectrumSpan(t *testing.T, res *Result, cfg Config) {
	t.Helper()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	cfg.Sched.Obs = obs.NewScope(tr, reg)
	cfg.Raman.LanczosK = 20
	if _, _, err := SpectrumFromGlobal(res.Global, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "spectrum" {
		t.Fatalf("spectrum solve traced %d spans, want one spectrum span", len(spans))
	}
	s := spans[0]
	if route, ok := s.Arg("route"); !ok || route != obs.SpectrumRouteLanczos {
		t.Fatalf("spectrum span carries route=%d (present %v), want the Lanczos route", route, ok)
	}
	steps, ok := s.Arg("lanczos_steps")
	if got := reg.Counter(obs.MetricLanczosSteps).Value(); !ok || steps <= 0 || got != steps {
		t.Fatalf("spectrum span carries lanczos_steps=%d (present %v), lanczos_steps_total=%d", steps, ok, got)
	}
	reorths, ok := s.Arg("lanczos_reorths")
	if got := reg.Counter(obs.MetricLanczosReorths).Value(); !ok || reorths > steps || got != reorths {
		t.Fatalf("spectrum span carries lanczos_reorths=%d (present %v), lanczos_reorth_steps_total=%d", reorths, ok, got)
	}
	if got := reg.Counter(obs.MetricSpectrumExact).Value(); got != 0 {
		t.Fatalf("Lanczos route counted %d exact spectra", got)
	}
}
