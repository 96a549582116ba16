// Command qfscale regenerates the paper's performance evaluation: the
// load-balance variation (Fig. 8), the per-fragment step-by-step speedups
// (Fig. 9), strong and weak scaling (Figs. 10, 11), and the double-precision
// rates (Table I). Published values are printed alongside for comparison.
//
// Examples:
//
//	qfscale -exp all -scale 16
//	qfscale -exp fig10 -scale 1      # full published node/fragment counts
//	qfscale -exp table1
package main

import (
	"flag"
	"fmt"
	"os"

	"qframan/internal/accel"
	"qframan/internal/perf"
	"qframan/internal/simhpc"
)

func main() {
	exp := flag.String("exp", "all", "fig8 | fig9 | fig10 | fig11 | table1 | all")
	scale := flag.Int("scale", 16, "divide the published node and fragment counts by this factor (1 = full scale)")
	seed := flag.Int64("seed", 1, "workload seed")
	withFaults := flag.Bool("faults", false, "inject node failures into the simulations (per-node MTBF from -mtbf)")
	mtbf := flag.Float64("mtbf", 86400, "per-node mean time between failures in virtual seconds (with -faults)")
	flag.Parse()

	opt := simhpc.DefaultExperimentOptions()
	opt.Scale = *scale
	opt.Seed = *seed
	if *withFaults {
		opt.NodeMTBFSeconds = *mtbf
		fmt.Printf("faults on: per-node MTBF %.0fs (system MTBF divides by the node count)\n\n", *mtbf)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "qfscale: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig8", func() error { return fig8(opt) })
	run("fig9", func() error { return fig9(*seed) })
	run("fig10", func() error { return fig10(opt) })
	run("fig11", func() error { return fig11(opt) })
	run("table1", func() error { return table1(*seed) })
}

func fig8(opt simhpc.ExperimentOptions) error {
	fmt.Println("Execution-time variation across leader groups (paper Fig. 8).")
	fmt.Println("Paper (ORISE protein): −1%…+1.5% @750 → −9.2%…+12.7% @6000 nodes")
	fmt.Println("Paper (Sunway mixed):  −0.4%…+0.4% @12k → −2.3%…+3.2% @96k nodes")
	rows, err := simhpc.LoadBalance(simhpc.ORISE(),
		simhpc.ProteinWorkload(opt1(simhpc.ORISEProteinFragments, opt), opt.Seed), simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	fmt.Println("ORISE, protein:")
	for _, r := range rows {
		fmt.Printf("  nodes(scaled) %6d (scale 1/%d): %+.1f%% … %+.1f%%\n",
			r.Nodes, opt.Scale, 100*r.Proc.MinDeviation, 100*r.Proc.MaxDeviation)
	}
	rows, err = simhpc.LoadBalance(simhpc.ORISE(),
		simhpc.WaterDimerWorkload(opt1(simhpc.ORISEWaterFragments, opt)), simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	fmt.Println("ORISE, water dimer:")
	for _, r := range rows {
		fmt.Printf("  nodes(scaled) %6d: %+.1f%% … %+.1f%%\n", r.Nodes, 100*r.Proc.MinDeviation, 100*r.Proc.MaxDeviation)
	}
	rows, err = simhpc.LoadBalance(simhpc.Sunway(),
		simhpc.SunwayMixedWorkload(opt1(simhpc.SunwayMixedFragments, opt), opt.Seed), simhpc.SunwayNodeCounts, opt)
	if err != nil {
		return err
	}
	fmt.Println("Sunway, mixed:")
	for _, r := range rows {
		fmt.Printf("  nodes(scaled) %6d: %+.1f%% … %+.1f%%\n", r.Nodes, 100*r.Proc.MinDeviation, 100*r.Proc.MaxDeviation)
	}
	return nil
}

func fig9(seed int64) error {
	fmt.Println("Step-by-step DFPT-cycle speedups (paper Fig. 9).")
	fmt.Println("Paper: strength reduction 3.0–4.4× (ORISE) / ≤6.0× (Sunway);")
	fmt.Println("       + elastic offloading 6.3–11.6× (ORISE) / ≤16.2× (Sunway)")
	sizes := []int{9, 20, 35, 50, 68}
	for _, d := range []struct {
		name string
		dev  accel.Device
	}{{"ORISE", accel.ORISEDevice()}, {"Sunway", accel.SunwayDevice()}} {
		rows, err := perf.Fig9(d.dev, sizes, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", d.name)
		for _, r := range rows {
			fmt.Printf("  %2d atoms: GEMMs %5d→%4d   +SR %.2f×   +SR+offload %.2f×\n",
				r.Atoms, r.GEMMsNaive, r.GEMMsReduced, r.SpeedupSR, r.SpeedupSROffload)
		}
	}
	return nil
}

func fig10(opt simhpc.ExperimentOptions) error {
	fmt.Println("Strong scaling (paper Fig. 10).")
	fmt.Println("Paper efficiencies — ORISE water: 99.1%+; ORISE protein: 96.7/95.4/91.1%;")
	fmt.Println("                     Sunway mixed: 99.9/98.7/96.2%")
	show := func(label string, rows []simhpc.ExperimentRow) {
		fmt.Printf("%s:\n", label)
		for _, r := range rows {
			fmt.Printf("  nodes(scaled) %6d: makespan %8.1fs  efficiency %5.1f%%%s\n",
				r.Nodes, r.MakespanSeconds, 100*r.Efficiency, faultNote(r))
		}
	}
	w := simhpc.WaterDimerWorkload(opt1(simhpc.ORISEWaterFragments, opt))
	rows, err := simhpc.StrongScaling(simhpc.ORISE(), w, simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	show("ORISE, water dimer", rows)
	p := simhpc.ProteinWorkload(opt1(simhpc.ORISEProteinFragments, opt), opt.Seed)
	rows, err = simhpc.StrongScaling(simhpc.ORISE(), p, simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	show("ORISE, protein", rows)
	mx := simhpc.SunwayMixedWorkload(opt1(simhpc.SunwayMixedFragments, opt), opt.Seed)
	rows, err = simhpc.StrongScaling(simhpc.Sunway(), mx, simhpc.SunwayNodeCounts, opt)
	if err != nil {
		return err
	}
	show("Sunway, mixed", rows)
	return nil
}

// faultNote annotates a row with its fault-recovery cost when faults are on.
func faultNote(r simhpc.ExperimentRow) string {
	if r.Retries == 0 {
		return ""
	}
	return fmt.Sprintf("  retries %d (%.1fs wasted)", r.Retries, r.WastedSeconds)
}

func opt1(v int, opt simhpc.ExperimentOptions) int {
	s := opt.Scale
	if s < 1 {
		s = 1
	}
	n := v / s
	if n < 1 {
		n = 1
	}
	return n
}

func fig11(opt simhpc.ExperimentOptions) error {
	fmt.Println("Weak scaling (paper Fig. 11).")
	fmt.Println("Paper — ORISE water: 2,406→18,445 frags/s (eff 99.0–99.1%);")
	fmt.Println("        ORISE protein: 93.2 frags/s base (eff 99.3–99.8%);")
	fmt.Println("        Sunway mixed: 1,661→13,240 frags/s (eff 99.6–100%)")
	show := func(label string, rows []simhpc.ExperimentRow) {
		fmt.Printf("%s:\n", label)
		for _, r := range rows {
			fmt.Printf("  nodes(scaled) %6d: %9.1f frags/s (×%d ≈ full scale)  efficiency %5.1f%%%s\n",
				r.Nodes, r.ThroughputFragments, opt.Scale, 100*r.Efficiency, faultNote(r))
		}
	}
	mkW := func(f int) simhpc.Workload { return simhpc.WaterDimerWorkload(f) }
	rows, err := simhpc.WeakScaling(simhpc.ORISE(), mkW, simhpc.ORISEWaterFragments, simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	show("ORISE, water dimer", rows)
	mkP := func(f int) simhpc.Workload { return simhpc.ProteinWorkload(f, opt.Seed) }
	rows, err = simhpc.WeakScaling(simhpc.ORISE(), mkP, simhpc.ORISEProteinFragments, simhpc.ORISENodeCounts, opt)
	if err != nil {
		return err
	}
	show("ORISE, protein", rows)
	mkM := func(f int) simhpc.Workload { return simhpc.SunwayMixedWorkload(f, opt.Seed) }
	rows, err = simhpc.WeakScaling(simhpc.Sunway(), mkM, simhpc.SunwayMixedFragments, simhpc.SunwayNodeCounts, opt)
	if err != nil {
		return err
	}
	show("Sunway, mixed", rows)
	return nil
}

func table1(seed int64) error {
	fmt.Println("Double-precision performance (paper Table I).")
	fmt.Println("Paper — ORISE: n1 1.11–3.93 TF/GPU → 85.27 PF (53.8%); h1 → 71.56 PF (45.2%)")
	fmt.Println("        Sunway: n1 2.10–4.82 TF/node → 311.17 PF (23.2%); h1 2.44–4.87 → 399.90 PF (29.5%)")
	sizes := []int{9, 20, 35, 50, 68}
	rows, err := perf.Table1("ORISE", accel.ORISEDevice(), perf.ORISEAccelerators, 1, perf.ORISEPeakPFLOPS, sizes, seed)
	if err != nil {
		return err
	}
	rows2, err := perf.Table1("Sunway", accel.SunwayDevice(), perf.SunwayNodes, 6, perf.SunwayPeakPFLOPS, sizes, seed)
	if err != nil {
		return err
	}
	for _, r := range append(rows, rows2...) {
		fmt.Printf("  %-6s %-3s: %.2f–%.2f TFLOPS/accel   %.2f PFLOPS (%.1f%% of peak)\n",
			r.Platform, r.Part, r.MinTFLOPS, r.MaxTFLOPS, r.PFLOPS, 100*r.PctOfPeak)
	}
	return nil
}
