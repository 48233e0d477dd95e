package main

import (
	"fmt"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/engine"
)

// loopIterations is the trip count of every benchmark query. It is fixed so
// that the work per op does not depend on the seed.
const loopIterations = 3

// gnmfRank is the factor rank every front-end binds for GNMF.
const gnmfRank = 10

// queryKind is one query type of a mix: an algorithm over a dataset shaped
// after one of the catalogue datasets (Table 2 or the zipf variants).
type queryKind struct {
	alg  algorithms.Name
	base string
}

func (k queryKind) String() string { return string(k.alg) + "/" + k.base }

func kinds(algs []algorithms.Name, bases ...string) []queryKind {
	var out []queryKind
	for _, a := range algs {
		for _, b := range bases {
			out = append(out, queryKind{a, b})
		}
	}
	return out
}

var (
	// compileMix is the planner-bound mix: every algorithm over every
	// shape class, including the two skew extremes.
	compileMix = kinds(algorithms.All, "cri1", "cri2", "cri3", "red1", "red2", "red3", "zipf-0.7", "zipf-2.1")

	// execMix is the kernel-bound mix: the quasi-Newton solvers on the
	// 870- and 1500-column shapes (dense n×n products, CSR×dense), the
	// first-order solvers on tall-narrow and fat shapes.
	execMix = append(
		kinds([]algorithms.Name{algorithms.DFP, algorithms.BFGS}, "cri2", "zipf-1.4", "cri3"),
		kinds([]algorithms.Name{algorithms.GD, algorithms.GNMF}, "cri1", "red1", "cri3", "red3")...)

	// serveMix is the ten-query catalogue the serving workloads replay.
	serveMix = []queryKind{
		{algorithms.GD, "cri1"}, {algorithms.GD, "cri2"}, {algorithms.GD, "zipf-1.4"},
		{algorithms.GNMF, "red2"}, {algorithms.GNMF, "cri2"},
		{algorithms.DFP, "cri1"}, {algorithms.DFP, "red2"}, {algorithms.DFP, "cri2"},
		{algorithms.BFGS, "cri2"}, {algorithms.BFGS, "red2"},
	}

	// smokeMix is one query per algorithm, for the in-test configuration.
	smokeMix = []queryKind{
		{algorithms.GD, "cri1"}, {algorithms.DFP, "cri2"},
		{algorithms.BFGS, "red2"}, {algorithms.GNMF, "red2"},
	}
)

// sizing selects between the full benchmark and the in-test smoke
// configuration (small matrices, one query per algorithm).
type sizing struct{ smoke bool }

func (s sizing) mix(full []queryKind) []queryKind {
	if s.smoke {
		return smokeMix
	}
	return full
}

// datasetName is the registry name of a base dataset regenerated under a
// seed: same shape, sparsity and skew, another nonzero pattern.
func datasetName(base string, seed int64) string { return fmt.Sprintf("%s.s%d", base, seed) }

// registerDatasets adds the seeded variant of every catalogue dataset to the
// program's dataset registry, so that the HTTP front-ends — which resolve
// datasets by name — bind the same generated inputs as the library path.
// It runs once, before any server starts.
func registerDatasets(seed int64, sz sizing) {
	for _, base := range append(append([]string(nil), data.Names...), data.ZipfNames...) {
		spec := data.Specs[base]
		spec.Name = datasetName(base, seed)
		if sz.smoke {
			spec.ScaleRows = 240
			if spec.ScaleCols > 0 {
				spec.ScaleCols /= 10
			}
		}
		data.Specs[spec.Name] = spec
	}
}

// datasets materializes each distinct dataset of a mix once.
func datasets(mix []queryKind, seed int64) (map[string]*data.Dataset, error) {
	out := map[string]*data.Dataset{}
	for _, k := range mix {
		if _, ok := out[k.base]; ok {
			continue
		}
		ds, err := data.Load(datasetName(k.base, seed))
		if err != nil {
			return nil, err
		}
		out[k.base] = ds
	}
	return out, nil
}

// bindInputs binds a dataset's standard symbols for an algorithm, as every
// front-end of the program does (remac.Dataset.Inputs, httpapi.QueryBuilder).
func bindInputs(alg algorithms.Name, ds *data.Dataset) map[string]engine.Input {
	if alg == algorithms.GNMF {
		w, h := ds.GNMFFactors(gnmfRank)
		return map[string]engine.Input{
			"V":  {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols},
			"W0": {Data: w, VRows: ds.VRows, VCols: gnmfRank},
			"H0": {Data: h, VRows: gnmfRank, VCols: ds.VCols},
		}
	}
	return map[string]engine.Input{
		"A":  {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols},
		"b":  {Data: ds.Label(), VRows: ds.VRows, VCols: 1},
		"H0": {Data: ds.InitialH(), VRows: ds.VCols, VCols: ds.VCols},
		"x0": {Data: ds.InitialX(), VRows: ds.VCols, VCols: 1},
	}
}

// answerVars names the result variables checked against the reference.
func answerVars(alg algorithms.Name) []string {
	if alg == algorithms.GNMF {
		return []string{"W", "H"}
	}
	return []string{"x"}
}
