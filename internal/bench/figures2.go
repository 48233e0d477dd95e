package bench

import (
	"fmt"

	"remac/internal/algorithms"
	"remac/internal/altengine"
	"remac/internal/data"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// Fig10a compares compilation time for generating the efficient execution
// plan: the DP prober vs brute-force enumeration, each with the
// metadata-based and MNC estimators.
func Fig10a() (*Table, error) {
	return fig10(false)
}

// Fig10b compares elapsed time (compilation plus execution) for the same
// four methods.
func Fig10b() (*Table, error) {
	return fig10(true)
}

func fig10(elapsed bool) (*Table, error) {
	id, title := "Fig 10(a)", "Compilation time to generate the efficient plan (seconds)"
	if elapsed {
		id, title = "Fig 10(b)", "Elapsed time of compilation and execution (seconds)"
	}
	t := &Table{ID: id, Title: title,
		Columns: []string{"DP-MD", "DP-MNC", "Enum-MD", "Enum-MNC"}}
	methods := []struct {
		col string
		e   sparsity.Estimator
		c   opt.Combiner
	}{
		{"DP-MD", sparsity.Metadata{}, opt.DP},
		{"DP-MNC", sparsity.MNC{}, opt.DP},
		{"Enum-MD", sparsity.Metadata{}, opt.EnumDFS},
		{"Enum-MNC", sparsity.MNC{}, opt.EnumDFS},
	}
	algs := []algorithms.Name{algorithms.DFP, algorithms.BFGS, algorithms.GD}
	if elapsed {
		// GNMF is the paper's combinatorial stress case; include it in the
		// elapsed comparison too.
		algs = append(algs, algorithms.GNMF)
	}
	for _, alg := range algs {
		names := data.Names
		if alg == algorithms.GNMF {
			names = []string{"cri2", "red2"}
		}
		for _, dsName := range names {
			row := Row{Label: fmt.Sprintf("%s/%s", alg, dsName), Values: map[string]float64{}}
			for _, m := range methods {
				out, err := runOne(runCfg{
					alg: alg, dataset: dsName, strategy: opt.Adaptive,
					estimator: m.e, combiner: m.c,
				})
				if err != nil {
					return nil, err
				}
				if elapsed {
					row.Values[m.col] = out.CompileSec + out.ExecSec
				} else {
					row.Values[m.col] = out.CompileSec
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"compilation time is real wall-clock; execution time is simulated cluster time",
		"Enum runs under a combination budget (the paper's Enum took >3 days on GNMF)")
	return t, nil
}

// Fig11 compares end-to-end systems: SystemDS, pbdR (ScaLAPACK), SciDB and
// ReMac on the dense datasets (the alternatives lack sparse support).
func Fig11() (*Table, error) {
	t := &Table{ID: "Fig 11", Title: "Alternative solutions, dense datasets (seconds)",
		Columns: []string{"SystemDS", "pbdR", "SciDB", "ReMac"}}
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS, algorithms.GD} {
		for _, dsName := range []string{"cri1", "red1"} {
			row := Row{Label: fmt.Sprintf("%s/%s", alg, dsName), Values: map[string]float64{}}
			sysds, err := runOne(runCfg{alg: alg, dataset: dsName, strategy: opt.Explicit})
			if err != nil {
				return nil, err
			}
			row.Values["SystemDS"] = sysds.ExecSec
			remac, err := runOne(runCfg{alg: alg, dataset: dsName, strategy: opt.Adaptive})
			if err != nil {
				return nil, err
			}
			row.Values["ReMac"] = remac.ExecSec

			ins, metas, err := inputsFor(alg, dsName)
			if err != nil {
				return nil, err
			}
			iters := algorithms.DefaultIterations(alg)
			prog := algorithms.MustProgram(alg, iters)
			for _, kind := range []altengine.Kind{altengine.PbdR, altengine.SciDB} {
				res, err := altengine.Run(kind, prog, metas, ins, iters)
				if err != nil {
					return nil, err
				}
				row.Values[kind.String()] = res.ExecSeconds
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, "input partition excluded (pbdR and SciDB take additional hours to load, §6.5)")
	return t, nil
}

// Fig12 analyses DFP on cri2 and the zipf-skewed datasets: total time split
// into input partition, compilation, computation and transmission, for
// SystemDS and ReMac.
func Fig12() (*Table, error) {
	t := &Table{ID: "Fig 12", Title: "Performance analysis for DFP (seconds)",
		Columns: []string{"partition", "compile", "compute", "transmit", "total"}}
	names := append([]string{"cri2"}, data.ZipfNames...)
	for _, dsName := range names {
		for _, sys := range []struct {
			label string
			s     opt.Strategy
		}{{"SystemDS", opt.Explicit}, {"ReMac", opt.Adaptive}} {
			out, err := runOne(runCfg{alg: algorithms.DFP, dataset: dsName, strategy: sys.s})
			if err != nil {
				return nil, err
			}
			// The compute/transmit split covers the whole run including
			// partition; separate the partition phase out front.
			compute := out.ComputeSec
			transmit := out.TransmitSec - out.PartitionSec
			if transmit < 0 {
				compute += transmit
				transmit = 0
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s/%s", dsName, sys.label),
				Values: map[string]float64{
					"partition": out.PartitionSec,
					"compile":   out.CompileSec,
					"compute":   compute,
					"transmit":  transmit,
					"total":     out.PartitionSec + out.CompileSec + compute + transmit,
				},
			})
		}
	}
	return t, nil
}

// Fig13 measures work balance: the fraction of input data each worker
// holds under hash partitioning, across the skew series.
func Fig13() (*Table, error) {
	t := &Table{ID: "Fig 13", Title: "Work balance for DFP (per-worker data share)",
		Columns: []string{"min", "max", "ideal"}}
	names := append([]string{"cri2"}, data.ZipfNames...)
	for _, dsName := range names {
		out, err := runOne(runCfg{alg: algorithms.DFP, dataset: dsName, strategy: opt.Adaptive})
		if err != nil {
			return nil, err
		}
		if len(out.WorkerShares) == 0 {
			return nil, fmt.Errorf("no worker shares for %s", dsName)
		}
		min, max := out.WorkerShares[0], out.WorkerShares[0]
		for _, s := range out.WorkerShares {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		t.Rows = append(t.Rows, Row{Label: dsName, Values: map[string]float64{
			"min": min, "max": max, "ideal": 1 / float64(len(out.WorkerShares)),
		}})
	}
	return t, nil
}
