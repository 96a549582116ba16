// Command qfstats reproduces the paper's §VI-A system statistics for the
// 101,299,008-atom solvated spike-protein setup: the fragment inventory of a
// 3,180-residue trimeric protein (3,171 conjugate caps, generalized concaps
// within λ = 4 Å) and the streaming water–water pair count of the
// ~33.75M-molecule solvent box (paper: 128,341,476 pairs).
//
// The full protein part runs in memory (≈50k atoms); the solvent statistics
// stream, so the 100M-atom scale needs no 100M-atom allocation. A -waterbox
// smaller than the paper's (e.g. 120) keeps the run under a minute; pass
// -waterbox 324 for the full 101,250,000-atom box (≈10–20 minutes).
//
// With -store <dir> the command instead inspects a qframan checkpoint store:
// record count, bytes on disk (live and dead, per segment) and the
// per-fragment-size histogram. How much a run deduped is that run's own
// count, on qframan's cache: line.
//
// With -trace <file.json> the command summarizes a Chrome trace written by
// qframan -trace-out: per-DFPT-phase latency percentiles (p50/p95/p99), the
// top-10 slowest fragments with their attempt/cycle/cache provenance, and a
// flame-style aggregation by span path.
//
// With -cluster <addr> the command queries a live qfcoord coordinator for
// its metrics snapshot: per-worker fragment counts, lease reassignments,
// and cache-tier hit ratios of the distributed runtime.
//
// With -traj <file.xyz> (optionally -in <topology>) the command diffs the
// trajectory's fragment fingerprints frame to frame — no SCF — and reports
// what an incremental qframan -traj run would schedule versus reuse.
//
// With -frag <file> the command decomposes a structure with every applicable
// partitioner (qf, graph) and prints per-partitioner fragment inventories and
// fragment-size histograms side by side — the tool for choosing a -frag-size
// before an expensive run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/store"
	"qframan/internal/structure"
)

func main() {
	storeDir := flag.String("store", "", "inspect this qframan checkpoint store instead of computing system statistics")
	traceIn := flag.String("trace", "", "summarize this Chrome trace JSON (as written by qframan -trace-out)")
	clusterAddr := flag.String("cluster", "", "query a live qfcoord coordinator at this address for its metrics snapshot")
	trajIn := flag.String("traj", "", "diff this extended-XYZ trajectory and report what an incremental run would schedule (no SCF)")
	topoIn := flag.String("in", "", "topology for -traj in genstruct text format (default: infer waters from frame 0)")
	fragIn := flag.String("frag", "", "decompose this structure file with every applicable partitioner and print per-partitioner fragment-size histograms")
	fragSize := flag.Int("frag-size", 0, "graph partitioner target fragment size in atoms for -frag (0 = default 24)")
	residues := flag.Int("residues", 3180, "total residues across the trimer (paper: 3,180)")
	chains := flag.Int("chains", 3, "number of chains (paper: trimer)")
	fold := flag.Int("fold", 24, "serpentine fold period per chain")
	seed := flag.Int64("seed", 7, "sequence seed")
	waterbox := flag.Int("waterbox", 120, "solvent box edge in molecules (324 ≈ the paper's 101.25M atoms)")
	lambda := flag.Float64("lambda", 4.0, "two-body threshold λ in Å")
	flag.Parse()

	if *fragIn != "" {
		if err := fragStats(*fragIn, *fragSize, *lambda); err != nil {
			fmt.Fprintln(os.Stderr, "qfstats:", err)
			os.Exit(1)
		}
		return
	}
	if *trajIn != "" {
		if err := trajStats(*trajIn, *topoIn); err != nil {
			fmt.Fprintln(os.Stderr, "qfstats:", err)
			os.Exit(1)
		}
		return
	}
	if *clusterAddr != "" {
		if err := clusterStats(*clusterAddr); err != nil {
			fmt.Fprintln(os.Stderr, "qfstats:", err)
			os.Exit(1)
		}
		return
	}
	if *traceIn != "" {
		if err := traceStats(*traceIn); err != nil {
			fmt.Fprintln(os.Stderr, "qfstats:", err)
			os.Exit(1)
		}
		return
	}
	if *storeDir != "" {
		if err := storeStats(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "qfstats:", err)
			os.Exit(1)
		}
		return
	}

	perChain := *residues / *chains
	seq := structure.RandomSequence(perChain, *seed)
	fmt.Printf("building %d-chain protein, %d residues/chain…\n", *chains, perChain)
	sys, err := structure.BuildMultimer(seq, *chains, *fold)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("protein: %d residues, %d atoms\n", len(sys.Residues), sys.NumAtoms())

	t0 := time.Now()
	opt := fragment.DefaultOptions()
	opt.LambdaRR = *lambda
	dec, err := fragment.Decompose(sys, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st := dec.Stats
	fmt.Printf("decomposition (%v):\n", time.Since(t0))
	fmt.Printf("  capped residue fragments: %8d\n", st.NumResidueFragments)
	fmt.Printf("  conjugate caps (concaps): %8d   (paper: 3,171 for 3,180 residues in 3 chains)\n", st.NumConcaps)
	fmt.Printf("  generalized concaps:      %8d   (paper: 11,394)\n", st.NumRRPairs)
	fmt.Printf("  fragment sizes:           %d–%d atoms (paper: 9–68)\n", st.MinAtoms, st.MaxAtoms)

	fmt.Printf("\nstreaming water box %d³ (λ = %.1f Å)…\n", *waterbox, *lambda)
	t0 = time.Now()
	atoms, frags, pairs := fragment.WaterBoxStats(*waterbox, *waterbox, *waterbox, *lambda)
	fmt.Printf("  atoms:              %12d   (paper: 101,250,000 at 324³·ish)\n", atoms)
	fmt.Printf("  water fragments:    %12d\n", frags)
	fmt.Printf("  water–water pairs:  %12d   (%.2f per molecule; paper: 128,341,476 ≈ 3.80)\n",
		pairs, float64(pairs)/float64(frags))
	fmt.Printf("  elapsed: %v\n", time.Since(t0))
}

// fragStats decomposes a structure file with every applicable partitioner
// and prints per-partitioner fragment inventories and size histograms for
// qfstats -frag.
func fragStats(path string, fragSize int, lambda float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sys, err := structure.ReadSystem(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("system %s: %d atoms, %d residues, %d waters, %d molecules\n",
		path, sys.NumAtoms(), len(sys.Residues), len(sys.Waters), len(sys.Molecules))

	qfOpt := fragment.DefaultOptions()
	qfOpt.LambdaRR, qfOpt.LambdaRW, qfOpt.LambdaWW = lambda, lambda, lambda
	gOpt := fragment.DefaultGraphOptions()
	gOpt.Lambda = lambda
	if fragSize > 0 {
		gOpt.TargetAtoms = fragSize
		gOpt.MaxAtoms = 0 // renormalize to 2×target
	}
	for _, p := range []fragment.Partitioner{
		fragment.QFPartitioner{Opt: qfOpt},
		fragment.GraphPartitioner{Opt: gOpt},
	} {
		t0 := time.Now()
		dec, err := p.Partition(sys)
		if err != nil {
			fmt.Printf("\npartitioner %-5s — not applicable: %v\n", p.Name(), err)
			continue
		}
		st := dec.Stats
		fmt.Printf("\npartitioner %-5s (%v):\n", p.Name(), time.Since(t0))
		if st.Partitioner == "graph" {
			fmt.Printf("  parts:         %8d   (target %d atoms)\n", st.NumParts, gOpt.TargetAtoms)
			fmt.Printf("  cut bonds:     %8d\n", st.NumCutBonds)
			fmt.Printf("  bonded pairs:  %8d\n", st.NumBondedPairs)
			fmt.Printf("  spatial pairs: %8d\n", st.NumSpatialPairs)
		} else {
			fmt.Printf("  residue fragments: %8d\n", st.NumResidueFragments)
			fmt.Printf("  concaps:           %8d\n", st.NumConcaps)
			fmt.Printf("  water fragments:   %8d\n", st.NumWaterFragments)
			fmt.Printf("  two-body pairs:    %8d rr, %d rw, %d ww\n", st.NumRRPairs, st.NumRWPairs, st.NumWWPairs)
		}
		fmt.Printf("  total fragments: %6d; sizes %d–%d atoms\n", st.TotalFragments, st.MinAtoms, st.MaxAtoms)
		fmt.Println("  fragment-size histogram (atoms → fragments):")
		sizes := make([]int, 0, len(st.SizeHistogram))
		for n := range st.SizeHistogram {
			sizes = append(sizes, n)
		}
		sort.Ints(sizes)
		for _, n := range sizes {
			fmt.Printf("    %4d atoms: %6d\n", n, st.SizeHistogram[n])
		}
	}
	return nil
}

// traceStats prints the straggler analytics and flame summary of a Chrome
// trace for qfstats -trace.
func traceStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d spans\n\n", path, len(spans))
	sum, err := obs.AnalyzeTrace(spans, 10)
	if err != nil {
		return err
	}
	if err := sum.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return obs.WriteFlame(os.Stdout, spans)
}

// storeStats prints the checkpoint-store summary for qfstats -store.
func storeStats(dir string) error {
	s, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	st := s.Stats()
	fmt.Printf("checkpoint store %s:\n", dir)
	fmt.Printf("  records:           %8d\n", st.Objects)
	fmt.Printf("  bytes:             %8d\n", st.Bytes)
	fmt.Printf("  segments:          %8d   (%d live bytes, %d dead bytes: tombstoned or superseded records)\n",
		st.Segments, st.Bytes, st.DeadBytes)
	fmt.Println("  fragment-size histogram (atoms → records):")
	for _, n := range st.SortedSizes() {
		fmt.Printf("    %4d atoms: %6d\n", n, st.SizeHistogram[n])
	}
	return nil
}
