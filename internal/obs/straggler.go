package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// FragStat is one fragment's observed cost, the row type of the straggler
// table. The scheduler builds these from its own ledger; AnalyzeTrace
// rebuilds them from an exported trace.
type FragStat struct {
	Frag     int
	Atoms    int
	Attempts int
	Wall     time.Duration
	Phase    [NumPhases]time.Duration
	Cycles   int64
	SCFIters int64
	CacheHit bool
}

// PhaseQuantiles summarizes one phase's duration distribution.
type PhaseQuantiles struct {
	Count         int
	P50, P95, P99 time.Duration
	Total         time.Duration
}

// StragglerSummary is the Report.Stragglers section: per-phase percentile
// latencies and the top-K slowest fragments.
type StragglerSummary struct {
	// Phases holds per-DFPT-phase quantiles. When built by the scheduler
	// the underlying samples are per-fragment phase totals; when built by
	// AnalyzeTrace they are the exact per-cycle phase spans.
	Phases [NumPhases]PhaseQuantiles
	// PerCycle reports which sample population Phases was computed over.
	PerCycle bool
	// TopK lists the slowest fragments by wall time, descending.
	TopK []FragStat
	// Fragments is the population size the table was drawn from.
	Fragments int
}

// exactQuantiles computes P50/P95/P99 over raw samples.
func exactQuantiles(durs []time.Duration) PhaseQuantiles {
	q := PhaseQuantiles{Count: len(durs)}
	if len(durs) == 0 {
		return q
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	for _, d := range durs {
		q.Total += d
	}
	at := func(p float64) time.Duration {
		i := int(p * float64(len(durs)-1))
		return durs[i]
	}
	q.P50, q.P95, q.P99 = at(0.50), at(0.95), at(0.99)
	return q
}

// Stragglers builds the summary from the scheduler's per-fragment stats:
// phase quantiles over per-fragment phase totals, and the top-K slowest
// fragments by wall time.
func Stragglers(stats []FragStat, k int) *StragglerSummary {
	s := &StragglerSummary{Fragments: len(stats)}
	for p := Phase(0); p < NumPhases; p++ {
		durs := make([]time.Duration, 0, len(stats))
		for i := range stats {
			if stats[i].Cycles > 0 {
				durs = append(durs, stats[i].Phase[p])
			}
		}
		s.Phases[p] = exactQuantiles(durs)
	}
	s.TopK = topK(stats, k)
	return s
}

func topK(stats []FragStat, k int) []FragStat {
	sorted := append([]FragStat(nil), stats...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Wall != sorted[b].Wall {
			return sorted[a].Wall > sorted[b].Wall
		}
		return sorted[a].Frag < sorted[b].Frag
	})
	if k > 0 && len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// AnalyzeTrace rebuilds the straggler summary from an exported trace:
// exact per-cycle phase quantiles from the phase spans, and per-fragment
// rows from the fragment spans (wall time, attempts, phase sums resolved
// through the parent chain).
func AnalyzeTrace(spans []SpanRecord, k int) (*StragglerSummary, error) {
	byID := make(map[uint64]*SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// Fragment spans carry the frag/atoms args.
	frags := make(map[uint64]*FragStat)
	for i := range spans {
		r := &spans[i]
		if r.Cat != "frag" {
			continue
		}
		fi, ok := r.Arg("frag")
		if !ok {
			return nil, fmt.Errorf("obs: fragment span %d lacks a frag arg", r.ID)
		}
		atoms, _ := r.Arg("atoms")
		fs := &FragStat{Frag: int(fi), Atoms: int(atoms), Wall: r.Dur}
		if hit, ok := r.Arg("cachehit"); ok && hit != 0 {
			fs.CacheHit = true
		}
		frags[r.ID] = fs
	}
	// fragOf resolves a span to its fragment ancestor (memoized).
	memo := make(map[uint64]uint64, len(spans))
	var fragOf func(r *SpanRecord) uint64
	fragOf = func(r *SpanRecord) uint64 {
		if id, ok := memo[r.ID]; ok {
			return id
		}
		var id uint64
		if _, isFrag := frags[r.ID]; isFrag {
			id = r.ID
		} else if parent, ok := byID[r.Parent]; ok && r.Parent != r.ID {
			id = fragOf(parent)
		}
		memo[r.ID] = id
		return id
	}
	var phaseDurs [NumPhases][]time.Duration
	for i := range spans {
		r := &spans[i]
		fs := frags[fragOf(r)]
		switch r.Cat {
		case "phase":
			p, ok := phaseByName(r.Name)
			if !ok {
				return nil, fmt.Errorf("obs: unknown phase span %q", r.Name)
			}
			phaseDurs[p] = append(phaseDurs[p], r.Dur)
			if fs != nil {
				fs.Phase[p] += r.Dur
			}
		case "dfpt":
			if fs != nil && r.Name == "dfpt.cycle" {
				fs.Cycles++
			}
		case "scf":
			if fs != nil {
				if n, ok := r.Arg("iters"); ok {
					fs.SCFIters += n
				}
			}
		case "sched":
			if fs != nil && r.Name == "attempt" {
				fs.Attempts++
			}
		}
	}
	s := &StragglerSummary{Fragments: len(frags), PerCycle: true}
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] = exactQuantiles(phaseDurs[p])
	}
	rows := make([]FragStat, 0, len(frags))
	for _, fs := range frags {
		rows = append(rows, *fs)
	}
	s.TopK = topK(rows, k)
	return s, nil
}

func phaseByName(name string) (Phase, bool) {
	for p, n := range PhaseNames {
		if n == name {
			return Phase(p), true
		}
	}
	return 0, false
}

// WriteText prints the summary: the per-phase percentile table followed by
// the top-K straggler table.
func (s *StragglerSummary) WriteText(w io.Writer) error {
	population := "per-fragment totals"
	if s.PerCycle {
		population = "per-cycle"
	}
	if _, err := fmt.Fprintf(w, "DFPT phase latency (%s):\n  %-6s %10s %12s %12s %12s %14s\n",
		population, "phase", "count", "p50", "p95", "p99", "total"); err != nil {
		return err
	}
	for _, p := range [NumPhases]Phase{PhaseN1, PhaseV1, PhaseH1, PhaseP1} {
		q := s.Phases[p]
		if _, err := fmt.Fprintf(w, "  %-6s %10d %12v %12v %12v %14v\n",
			PhaseNames[p], q.Count, q.P50.Round(time.Microsecond), q.P95.Round(time.Microsecond),
			q.P99.Round(time.Microsecond), q.Total.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "top %d stragglers of %d fragments:\n  %-6s %6s %9s %12s %8s %9s %6s\n",
		len(s.TopK), s.Fragments, "frag", "atoms", "attempts", "wall", "cycles", "scfiters", "cache"); err != nil {
		return err
	}
	for i := range s.TopK {
		f := &s.TopK[i]
		cache := "miss"
		if f.CacheHit {
			cache = "hit"
		}
		if _, err := fmt.Fprintf(w, "  %-6d %6d %9d %12v %8d %9d %6s\n",
			f.Frag, f.Atoms, f.Attempts, f.Wall.Round(time.Microsecond), f.Cycles, f.SCFIters, cache); err != nil {
			return err
		}
	}
	return nil
}
