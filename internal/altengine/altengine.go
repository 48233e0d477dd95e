// Package altengine simulates the alternative distributed solutions of
// §6.4 — pbdR (atop ScaLAPACK, the HPC representative) and SciDB (the
// array-database representative) — at the fidelity the paper characterizes
// them: no redundancy elimination, no driver-local execution mode, dense
// storage regardless of input sparsity, and slow serial input partitioning
// (hours for the evaluation's matrices; pbdR builds dense distributed
// matrices serially, SciDB additionally needs a redimension pass).
package altengine

import (
	"context"
	"fmt"

	"remac/internal/cluster"
	"remac/internal/engine"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// Kind selects the simulated engine.
type Kind int

const (
	// PbdR is programming-with-big-data-in-R over ScaLAPACK.
	PbdR Kind = iota
	// SciDB is the array database.
	SciDB
)

// String names the engine as in Fig 11.
func (k Kind) String() string {
	if k == SciDB {
		return "SciDB"
	}
	return "pbdR"
}

// Result reports a simulated run.
type Result struct {
	// ExecSeconds is the simulated execution time (input partition
	// excluded, like the paper's post-partition measurements).
	ExecSeconds float64
	// InputPartitionSeconds is the (serial) load-and-partition phase.
	InputPartitionSeconds float64
	Iterations            int
}

// Run executes a program on the simulated alternative engine. The engine
// compiles with no elimination and runs on a cluster profile with local
// mode disabled and dense-only storage.
func Run(kind Kind, prog *lang.Program, metas map[string]sparsity.Meta, inputs map[string]engine.Input, iterations int) (*Result, error) {
	cfg := cluster.DefaultConfig()
	cfg.NoLocalMode = true
	cfg.DenseOnly = true

	compiled, err := opt.Compile(prog, metas, opt.Config{
		Strategy:   opt.NoElimination,
		Cluster:    cfg,
		Iterations: iterations,
	})
	if err != nil {
		return nil, fmt.Errorf("altengine: %w", err)
	}
	res, err := engine.RunWithOptions(context.Background(), compiled, inputs, nil, engine.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("altengine: %w", err)
	}

	// Input partition: neither engine splits and partitions a dataset in
	// parallel (§6.5). The dense matrix loads through a single node's
	// disk and network link; SciDB additionally redimensions (a full
	// sort-shuffle pass through one coordinator).
	partition := 0.0
	for _, in := range inputs {
		meta := sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
		denseBytes := float64(matrix.SizeBytesFor(int(meta.Rows), int(meta.Cols), 1))
		serial := denseBytes/cfg.DiskBandwidth + denseBytes/cfg.NetBandwidth
		if kind == SciDB {
			serial += 2 * denseBytes / cfg.NetBandwidth // redimension
		}
		partition += serial
	}

	return &Result{
		ExecSeconds:           res.Stats.TotalTime() - res.InputPartitionSec,
		InputPartitionSeconds: partition,
		Iterations:            res.Iterations,
	}, nil
}
