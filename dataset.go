package remac

import (
	"fmt"

	"remac/internal/algorithms"
	"remac/internal/data"
)

// Dataset is one of the built-in evaluation datasets: a materialized sample
// carrying paper-scale virtual dimensions (Table 2).
type Dataset struct {
	ds *data.Dataset
}

// Datasets lists the built-in Table 2 dataset names.
func Datasets() []string { return append([]string(nil), data.Names...) }

// ZipfDatasets lists the §6.5 skewed synthetic dataset names.
func ZipfDatasets() []string { return append([]string(nil), data.ZipfNames...) }

// LoadDataset materializes a built-in dataset deterministically.
func LoadDataset(name string) (*Dataset, error) {
	ds, err := data.Load(name)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.ds.Name }

// Design returns the materialized design matrix.
func (d *Dataset) Design() *Matrix { return wrap(d.ds.A) }

// VirtualDims returns the paper-scale dimensions.
func (d *Dataset) VirtualDims() (int64, int64) { return d.ds.VRows, d.ds.VCols }

// Inputs builds the input map for a workload over this dataset.
func (d *Dataset) Inputs(workload string) (map[string]Input, error) {
	bound, err := d.ds.Inputs(algorithms.Name(workload))
	if err != nil {
		return nil, fmt.Errorf("remac: unknown workload %q", workload)
	}
	in := make(map[string]Input, len(bound))
	for _, b := range bound {
		in[b.Name] = Input{Data: wrap(b.Data), VirtualRows: b.VRows, VirtualCols: b.VCols}
	}
	return in, nil
}

// Workloads lists the built-in algorithm names.
func Workloads() []string {
	out := make([]string, 0, len(algorithms.All)+1)
	for _, a := range algorithms.All {
		out = append(out, string(a))
	}
	return append(out, string(algorithms.PartialDFP))
}

// WorkloadScript returns the DML source of a built-in algorithm with the
// given loop trip count.
func WorkloadScript(workload string, iterations int) (string, error) {
	return algorithms.Script(algorithms.Name(workload), iterations)
}

// WorkloadIterations returns the evaluation's default trip count for a
// workload.
func WorkloadIterations(workload string) int {
	return algorithms.DefaultIterations(algorithms.Name(workload))
}
