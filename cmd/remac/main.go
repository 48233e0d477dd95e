// remac runs a built-in workload on a built-in dataset under a chosen
// planning strategy and reports the simulated execution profile.
//
// Usage:
//
//	remac -workload DFP -dataset cri2 -strategy adaptive -iterations 15
//	remac -workload DFP -faults 60 -fault-seed 7 -recovery checkpoint
//	remac -workload DFP -corrupt-rate 120 -verify abft -nan-guard iter
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
	dsName := flag.String("dataset", "cri2", "dataset: cri1..3, red1..3, zipf-0.0..zipf-2.8")
	strategy := flag.String("strategy", "adaptive", "none, explicit, conservative, aggressive, automatic, adaptive")
	estimator := flag.String("estimator", "MNC", "MD or MNC")
	iterations := flag.Int("iterations", 0, "loop trip count (0 = workload default)")
	singleNode := flag.Bool("single-node", false, "use the single-node cluster profile")
	nodes := flag.Int("nodes", 0, "cluster size override (0 = profile default; one node hosts the driver)")
	faults := flag.Float64("faults", 0, "inject r worker failures, 2r transmission errors and r stragglers per simulated hour of work")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed (same seed + rates = same schedule)")
	recovery := flag.String("recovery", "", "recovery policy: lineage (default), checkpoint (persist loop-hoisted intermediates to DFS so failures re-read them), coded or coded:k,n (k-of-n erasure-coded recovery)")
	corruptRate := flag.Float64("corrupt-rate", 0, "inject r silent payload corruptions per simulated hour of work")
	verify := flag.String("verify", "off", "integrity verification: off, digest (block checksums), abft (digest + multiply checksum vectors)")
	nanGuard := flag.String("nan-guard", "off", "non-finite scan cadence: off, iter (loop variables each iteration), op (every operator output)")
	traceFile := flag.String("trace", "", "write the run's operator spans to this file as JSON lines")
	flag.Parse()

	if *iterations == 0 {
		*iterations = remac.WorkloadIterations(*workload)
	}
	ds, err := remac.LoadDataset(*dsName)
	fatal(err)
	inputs, err := ds.Inputs(*workload)
	fatal(err)
	script, err := remac.WorkloadScript(*workload, *iterations)
	fatal(err)

	clusterCfg := remac.DefaultCluster()
	if *singleNode {
		clusterCfg = remac.SingleNodeCluster()
	}
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
		Iterations: *iterations,
	})
	fatal(err)

	opts := remac.RunOptions{Recovery: *recovery, Verify: *verify, NaNGuard: *nanGuard, Trace: *traceFile != ""}
	if *faults > 0 || *corruptRate > 0 {
		opts.Faults = &remac.FaultConfig{
			Seed:                  *faultSeed,
			WorkerFailuresPerHour: *faults,
			TransmitErrorsPerHour: 2 * *faults,
			StragglersPerHour:     *faults,
			CorruptionsPerHour:    *corruptRate,
		}
	}

	report, err := prog.RunContext(context.Background(), opts)
	fatal(err)
	if report.Trace != nil {
		f, err := os.Create(*traceFile)
		fatal(err)
		fatal(report.Trace.WriteJSONL(f))
		fatal(f.Close())
	}

	fmt.Printf("%s on %s, strategy %s, %d iterations\n", *workload, *dsName, *strategy, report.Iterations)
	fmt.Printf("  compile             %10.3f s (real)\n", report.CompileSeconds)
	fmt.Printf("  input partition     %10.1f s (simulated)\n", report.InputPartitionSeconds)
	fmt.Printf("  execution           %10.1f s (simulated: %.1f compute + %.1f transmission)\n",
		report.SimulatedSeconds-report.InputPartitionSeconds, report.ComputeSeconds, report.TransmitSeconds)
	if *faults > 0 {
		fmt.Printf("  fault recovery      %10.1f s (simulated: %d retries, %d worker failures, %.2f recompute GFLOP)\n",
			report.RecoverySeconds, report.Retries, report.FailedWorkers, report.RecomputeFLOP/1e9)
	}
	if report.CodedRecoveries > 0 || report.EncodeFLOP > 0 {
		fmt.Printf("  coded recovery      %10.1f s decode (simulated: %d k-of-n decodes, %.2f encode GFLOP)\n",
			report.DecodeSeconds, report.CodedRecoveries, report.EncodeFLOP/1e9)
	}
	if *corruptRate > 0 || *verify != "off" {
		detected := report.CorruptionsDetectedDigest + report.CorruptionsDetectedABFT
		fmt.Printf("  integrity           %10.1f s verification (simulated); %d corruptions, %d detected (%d digest, %d abft), %d repairs (%.1f s)\n",
			report.VerifySeconds, report.CorruptionsInjected, detected,
			report.CorruptionsDetectedDigest, report.CorruptionsDetectedABFT,
			report.IntegrityRepairs, report.RepairSeconds)
	}
	if keys := prog.SelectedKeys(); len(keys) > 0 {
		fmt.Printf("  applied options     %v\n", keys)
	}
	for _, prim := range []string{"collect", "broadcast", "shuffle", "dfs"} {
		fmt.Printf("  %-10s bytes    %10.2f GB\n", prim, report.BytesByPrimitive[prim]/(1<<30))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
