// remac-explain dumps the optimizer's view of a workload: the coordinate
// system (Figure 4), every CSE/LSE option the block-wise search found, the
// combination the chosen strategy applied, and — after executing the plan —
// the per-statement simulated-cost table.
//
// Usage:
//
//	remac-explain -workload DFP -dataset cri2 -strategy adaptive
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"remac"
)

func main() {
	workload := flag.String("workload", "DFP", "workload: GD, DFP, BFGS, GNMF, PartialDFP")
	dsName := flag.String("dataset", "cri2", "dataset name")
	strategy := flag.String("strategy", "adaptive", "planning strategy")
	estimator := flag.String("estimator", "MNC", "MD or MNC")
	nodes := flag.Int("nodes", 0, "cluster size override (0 = default profile; one node hosts the driver)")
	flag.Parse()

	iterations := remac.WorkloadIterations(*workload)
	ds, err := remac.LoadDataset(*dsName)
	fatal(err)
	inputs, err := ds.Inputs(*workload)
	fatal(err)
	script, err := remac.WorkloadScript(*workload, iterations)
	fatal(err)

	clusterCfg := remac.DefaultCluster()
	if *nodes != 0 {
		clusterCfg.Nodes = *nodes
	}
	if err := clusterCfg.Validate(); err != nil {
		fatal(fmt.Errorf("invalid cluster configuration: %w", err))
	}
	prog, err := remac.Compile(script, inputs, remac.Config{
		Strategy:   remac.Strategy(*strategy),
		Estimator:  remac.Estimator(*estimator),
		Cluster:    clusterCfg,
		Iterations: iterations,
	})
	fatal(err)
	fmt.Print(prog.Explain())

	report, err := prog.RunContext(context.Background(), remac.RunOptions{Trace: true})
	fatal(err)
	fmt.Printf("\nsimulated cost by statement (%d iterations):\n", iterations)
	fmt.Printf("%-24s %6s %8s %12s %12s %12s\n",
		"statement", "execs", "ops", "compute(s)", "transmit(s)", "total(s)")
	for _, sc := range report.Trace.StatementCosts() {
		fmt.Printf("%-24s %6d %8d %12.3f %12.3f %12.3f\n",
			sc.Statement, sc.Executions, sc.Ops, sc.ComputeSeconds, sc.TransmitSeconds,
			sc.ComputeSeconds+sc.TransmitSeconds)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
