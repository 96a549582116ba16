// Command bench is the repository's one end-to-end benchmark: seven named
// workloads, four end-to-end metrics measured with tracing off, and a
// separate traced pass that attributes time to layers from outside the
// program. BENCHMARK.json at the repository root declares it; README.md in
// this directory is the metric and workload dictionary.
//
//	go run ./bench                              every workload, each in its own child process
//	go run ./bench -trace 1                     the traced pass (per-layer metrics) for every workload
//	go run ./bench -workload grid-2w -seed 3    one workload in this process (what the driver runs)
//	go run ./bench -runs 10 -out A.json         ten runs per workload, seeds seed…seed+9
//	go run ./bench -compare A.json B.json       verdict per (metric, workload) against the bounds
//	go run ./bench -workload wb-gamma -write-ref   regenerate bench/ref/wb-gamma-seed1.tsv
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qframan/internal/par"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run's timed
// window lasts.
const defaultSeconds = 8

// maxProcs caps GOMAXPROCS (and with it the par kernel budget) so a many-
// core host runs the same 2 leaders × 2 workers configuration the numbers
// were sized on, rather than a different program.
const maxProcs = 4

// hostInfo is recorded with every result: no number is meaningful without
// the cores it was measured on.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ParBudget  int    `json:"par_budget"`
	Go         string `json:"go"`
}

func readHost() hostInfo {
	name, _ := os.Hostname() // an empty name is recorded as such
	return hostInfo{Hostname: name, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ParBudget: par.Budget(), Go: runtime.Version()}
}

// findBenchDir locates this directory from the working directory by the
// declaration that names it: the repository root holds BENCHMARK.json (how
// the driver and `go run ./bench` start the harness), bench/ has it one up.
func findBenchDir() (string, error) {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "bench", nil
	}
	if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
		return ".", nil
	}
	return "", fmt.Errorf("bench: run from the repository root or from bench/ (BENCHMARK.json not found)")
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed: drives jitter and walk displacements, never sizes")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed window of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload in the all-workloads mode, seeds seed…seed+runs−1")
	out := flag.String("out", "", "result JSON of the all-workloads mode (default bench/out/result[-trace].json)")
	writeRefFlag := flag.Bool("write-ref", false, "write the workload's reference spectrum to bench/ref/<workload>-seed<seed>.tsv")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if n := runtime.NumCPU(); n > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	par.SetBudget(0) // re-read GOMAXPROCS

	benchDir, err := findBenchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join(benchDir, "..", "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *workload != "":
		o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
			writeRef: *writeRefFlag, benchDir: benchDir, out: os.Stdout}
		os.Exit(runOne(o))
	default:
		if *writeRefFlag {
			fmt.Fprintln(os.Stderr, "bench: -write-ref needs -workload")
			os.Exit(2)
		}
		os.Exit(runAll(benchDir, *seed, *seconds, *trace != 0, *runs, *out))
	}
}

// runOne runs one workload in this process and prints the result line last.
func runOne(o runOpts) int {
	w := findWorkload(o.workload)
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].Name
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	h := readHost()
	fmt.Fprintf(o.out, "workload %s seed %d seconds %g trace %v — %s, nproc %d, GOMAXPROCS %d, par budget %d, %s\n",
		w.Name, o.seed, o.seconds, o.traced, h.Hostname, h.NProc, h.GOMAXPROCS, h.ParBudget, h.Go)
	run, defs := runUntraced, endToEnd
	if o.traced {
		run, defs = runTraced, perLayer
	}
	res, detail, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(o.out, w.Name, defs, res, detail)
	dj, err := json.Marshal(detail)
	if err == nil {
		fmt.Fprintf(o.out, "detail %s\n", dj)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(o.out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// resultFile is the one result schema: what -out writes and -compare reads.
// Modeled is always empty — every number here is measured on this host's
// cores; nothing is replayed, extrapolated or simulated.
type resultFile struct {
	Schema    string           `json:"schema"`
	Date      string           `json:"date"`
	Host      hostInfo         `json:"host"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Runs      int              `json:"runs"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Modeled   []string         `json:"modeled"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string      `json:"name"`
	Why  string      `json:"why"`
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Result runResult `json:"result"`
	Detail runDetail `json:"detail"`
}

// gitCommit asks git for HEAD; a checkout without git metadata says so.
func gitCommit(benchDir string) string {
	cmd := exec.Command("git", "-C", benchDir, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in its own child process, so peak RSS and CPU
// time are per workload and no process-global state (the par token budget,
// the GEMM batch aggregator's counters, the Go heap) leaks between them.
func runAll(benchDir string, seed int64, seconds float64, traced bool, runs int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if runs < 1 {
		runs = 1
	}
	rf := resultFile{Schema: "qframan-bench/1", Date: time.Now().UTC().Format(time.RFC3339), Host: readHost(),
		Commit: gitCommit(benchDir), Seed: seed, Runs: runs, Seconds: seconds, Traced: traced, Modeled: []string{}}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	status := 0
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name, Why: w.Why}
		for i := 0; i < runs; i++ {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			err := cmd.Run()
			rec, perr := parseChild(buf.String())
			if perr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v (child: %v)\n", w.Name, perr, err)
				status = 1
				continue
			}
			if err != nil || !rec.Result.Correct {
				status = 1
			}
			wr.Runs = append(wr.Runs, rec)
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	printSummary(os.Stdout, rf)
	if outPath == "" {
		name := "result.json"
		if traced {
			name = "result-trace.json"
		}
		outPath = filepath.Join(benchDir, "out", name)
	}
	if err := writeJSON(outPath, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("result: %s\n", outPath)
	return status
}

// parseChild extracts the detail line and the result line (the last line)
// from a child's standard output.
func parseChild(out string) (runRecord, error) {
	var rec runRecord
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return rec, fmt.Errorf("child printed no result line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "detail "); ok {
			if err := json.Unmarshal([]byte(rest), &rec.Detail); err != nil {
				return rec, fmt.Errorf("detail line: %w", err)
			}
		}
	}
	return rec, nil
}

// metricSamples collects one metric's values across a workload's runs.
func metricSamples(w workloadResult, name string) []float64 {
	var xs []float64
	for _, r := range w.Runs {
		if v, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// printSummary prints every metric × workload by name with its unit: the
// median across runs and the number of runs behind it.
func printSummary(out io.Writer, rf resultFile) {
	defs := endToEnd
	if rf.Traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "\n== summary: %d run(s) per workload, seeds %d…%d, %g s windows, nproc %d, GOMAXPROCS %d, commit %s ==\n",
		rf.Runs, rf.Seed, rf.Seed+int64(rf.Runs)-1, rf.Seconds, rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Commit)
	for _, w := range rf.Workloads {
		attempted, failed := 0, 0
		for _, r := range w.Runs {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
		atoms, frags := 0, 0
		if len(w.Runs) > 0 {
			atoms, frags = w.Runs[0].Detail.Atoms, w.Runs[0].Detail.Fragments
		}
		fmt.Fprintf(out, "%s (%d atoms, %d fragments)\n", w.Name, atoms, frags)
		for _, def := range defs {
			xs := metricSamples(w, def.Name)
			fmt.Fprintf(out, "  %-28s %16.6g %-6s (median of %d)\n", def.Name, median(xs), def.Unit, len(xs))
		}
		ff := 0.0
		if attempted > 0 {
			ff = float64(failed) / float64(attempted)
		}
		fmt.Fprintf(out, "  %-28s %16.6g %-6s (%d failed of %d attempted)\n", "fail_frac", ff, "ratio", failed, attempted)
	}
}
