// Package data generates the evaluation datasets: deterministic synthetic
// analogues of the paper's criteo and reddit matrices (Table 2) and the
// zipf-skewed variants of §6.5. Matrices are materialized at a reduced
// scale but carry the paper-scale virtual dimensions the cost model and the
// simulated clock use (see the substitution table in DESIGN.md); sparsity
// and tall/fat aspect — the properties the evaluation's crossovers depend
// on — match Table 2 exactly.
package data

import (
	"fmt"
	"math/rand"
	"sync"

	"remac/internal/algorithms"
	"remac/internal/matrix"
)

// Dataset is one evaluation input: the materialized design matrix plus its
// virtual (paper-scale) dimensions and the derived model inputs. Hold it by
// pointer: it memoises the derived inputs.
type Dataset struct {
	Name string
	// A is the materialized design matrix.
	A *matrix.Matrix
	// VRows and VCols are the paper-scale dimensions.
	VRows, VCols int64
	// Sparsity is the nominal sparsity (Table 2).
	Sparsity float64
	// Dense reports the storage class Table 2 implies.
	Dense bool
	// FootprintGB is Table 2's reported memory footprint.
	FootprintGB float64

	// The derived inputs are pure functions of the dataset, computed on
	// first request and shared by every query over it afterwards (they are
	// inputs: nothing downstream writes one).
	label, x0, h0 derived
	gnmfMu        sync.Mutex
	gnmf          map[int][2]*matrix.Matrix
}

// derived is one lazily built input.
type derived struct {
	once sync.Once
	m    *matrix.Matrix
}

func (d *derived) get(build func() *matrix.Matrix) *matrix.Matrix {
	d.once.Do(func() { d.m = build() })
	return d.m
}

// Spec describes a dataset before materialization.
type Spec struct {
	Name         string
	VRows, VCols int64
	Sparsity     float64
	FootprintGB  float64
	// ZipfExp skews the nonzero distribution (0 = uniform).
	ZipfExp float64
	// ScaleRows is the materialized row count.
	ScaleRows int
	// ScaleCols is the materialized column count (0 = VCols).
	ScaleCols int
}

// Specs lists the Table 2 datasets and the §6.5 zipf variants. The
// materialized sizes keep every kernel laptop-fast while preserving aspect
// ratio class (tall-narrow vs fat) and exact sparsity.
var Specs = map[string]Spec{
	"cri1": {Name: "cri1", VRows: 116_800_000, VCols: 47, Sparsity: 0.6, FootprintGB: 40.9, ScaleRows: 4000},
	"cri2": {Name: "cri2", VRows: 58_400_000, VCols: 8_700, Sparsity: 4.5e-3, FootprintGB: 30.0, ScaleRows: 2000, ScaleCols: 870},
	"cri3": {Name: "cri3", VRows: 58_400_000, VCols: 15_000, Sparsity: 2.6e-3, FootprintGB: 30.0, ScaleRows: 2000, ScaleCols: 1500},
	"red1": {Name: "red1", VRows: 120_000_000, VCols: 34, Sparsity: 0.51, FootprintGB: 30.4, ScaleRows: 4000},
	"red2": {Name: "red2", VRows: 104_500_000, VCols: 5_000, Sparsity: 3.9e-3, FootprintGB: 31.5, ScaleRows: 2000, ScaleCols: 500},
	"red3": {Name: "red3", VRows: 104_500_000, VCols: 20_000, Sparsity: 9.6e-4, FootprintGB: 31.5, ScaleRows: 2000, ScaleCols: 2000},

	"zipf-0.0": zipfSpec(0.0),
	"zipf-0.7": zipfSpec(0.7),
	"zipf-1.4": zipfSpec(1.4),
	"zipf-2.1": zipfSpec(2.1),
	"zipf-2.8": zipfSpec(2.8),
}

// zipfSpec builds a cri2-shaped skewed dataset (§6.5: "the same row and
// column numbers as well as the sparsity of cri2").
func zipfSpec(exp float64) Spec {
	return Spec{
		Name:  fmt.Sprintf("zipf-%.1f", exp),
		VRows: 58_400_000, VCols: 8_700, Sparsity: 4.5e-3, FootprintGB: 30.0,
		ZipfExp: exp, ScaleRows: 2000, ScaleCols: 870,
	}
}

// Names lists the Table 2 datasets in presentation order.
var Names = []string{"cri1", "cri2", "cri3", "red1", "red2", "red3"}

// ZipfNames lists the §6.5 datasets in presentation order.
var ZipfNames = []string{"zipf-0.0", "zipf-0.7", "zipf-1.4", "zipf-2.1", "zipf-2.8"}

// loaded memoises Load per registered spec.
var (
	loadMu sync.Mutex
	loaded = map[Spec]*Dataset{}
)

// Load returns the dataset registered under name, materialized
// deterministically on first request (same name → same data) and shared by
// every caller afterwards: a *Dataset is read-only, so a caller that wants
// to change a matrix clones it.
func Load(name string) (*Dataset, error) {
	spec, ok := Specs[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown dataset %q", name)
	}
	loadMu.Lock()
	defer loadMu.Unlock()
	d, ok := loaded[spec]
	if !ok {
		d = Generate(spec)
		loaded[spec] = d
	}
	return d, nil
}

// MustLoad is Load that panics on unknown names.
func MustLoad(name string) *Dataset {
	d, err := Load(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Generate materializes a spec.
func Generate(spec Spec) *Dataset {
	rng := rand.New(rand.NewSource(seedFor(spec.Name)))
	cols := spec.ScaleCols
	if cols == 0 {
		cols = int(spec.VCols)
	}
	var a *matrix.Matrix
	switch {
	case spec.ZipfExp > 0:
		a = matrix.ZipfSparse(rng, spec.ScaleRows, cols, spec.Sparsity, spec.ZipfExp)
	case spec.Sparsity > matrix.DenseThreshold:
		a = denseWithSparsity(rng, spec.ScaleRows, cols, spec.Sparsity)
	default:
		a = matrix.RandSparse(rng, spec.ScaleRows, cols, spec.Sparsity)
	}
	return &Dataset{
		Name:        spec.Name,
		A:           a,
		VRows:       spec.VRows,
		VCols:       spec.VCols,
		Sparsity:    spec.Sparsity,
		Dense:       spec.Sparsity > matrix.DenseThreshold,
		FootprintGB: spec.FootprintGB,
	}
}

// denseWithSparsity builds a dense-format matrix with the target fraction
// of nonzeros (cri1/red1 are dense-stored but not fully filled).
func denseWithSparsity(rng *rand.Rand, rows, cols int, s float64) *matrix.Matrix {
	cells := make([]float64, rows*cols)
	for i := range cells {
		if rng.Float64() < s {
			cells[i] = 2*float64(rng.Float64()) - 1
		}
	}
	return matrix.NewDenseData(rows, cols, cells)
}

func seedFor(name string) int64 {
	h := int64(1469598103934665603)
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// Label returns a deterministic b vector (rows×1 dense) for least-squares
// workloads, with virtual rows matching the dataset.
func (d *Dataset) Label() *matrix.Matrix {
	return d.label.get(func() *matrix.Matrix {
		rng := rand.New(rand.NewSource(seedFor(d.Name + "/label")))
		return matrix.RandVector(rng, d.A.Rows())
	})
}

// InitialX returns a deterministic starting point x0 (cols×1).
func (d *Dataset) InitialX() *matrix.Matrix {
	return d.x0.get(func() *matrix.Matrix {
		rng := rand.New(rand.NewSource(seedFor(d.Name + "/x0")))
		return matrix.RandVector(rng, d.A.Cols()).Scale(0.01)
	})
}

// InitialH returns the identity inverse-Hessian approximation (cols×cols).
func (d *Dataset) InitialH() *matrix.Matrix {
	return d.h0.get(func() *matrix.Matrix { return matrix.Identity(d.A.Cols()) })
}

// GNMFFactors returns deterministic non-negative W0 (rows×k) and H0 (k×cols)
// factors for GNMF.
func (d *Dataset) GNMFFactors(k int) (*matrix.Matrix, *matrix.Matrix) {
	d.gnmfMu.Lock()
	defer d.gnmfMu.Unlock()
	f, ok := d.gnmf[k]
	if !ok {
		rng := rand.New(rand.NewSource(seedFor(d.Name + "/gnmf")))
		f[0] = absAll(matrix.RandDense(rng, d.A.Rows(), k))
		f[1] = absAll(matrix.RandDense(rng, k, d.A.Cols()))
		if d.gnmf == nil {
			d.gnmf = map[int][2]*matrix.Matrix{}
		}
		d.gnmf[k] = f
	}
	return f[0], f[1]
}

// gnmfRank is the factor rank every front-end binds for GNMF.
const gnmfRank = 10

// Input is one symbol a workload reads over a dataset: the matrix bound to
// it and the paper-scale dimensions it stands for.
type Input struct {
	Name         string
	Data         *matrix.Matrix
	VRows, VCols int64
}

// Inputs returns the symbols workload alg reads over the dataset: V, W0
// and H0 for GNMF; A, H0, x0 and — except for PartialDFP, which has no
// right-hand side — b for the least-squares solvers. Every front-end
// (bench, HTTP, library) wraps these in its own input type.
func (d *Dataset) Inputs(alg algorithms.Name) ([]Input, error) {
	switch alg {
	case algorithms.GNMF:
		w, h := d.GNMFFactors(gnmfRank)
		return []Input{
			{"V", d.A, d.VRows, d.VCols},
			{"W0", w, d.VRows, gnmfRank},
			{"H0", h, gnmfRank, d.VCols},
		}, nil
	case algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.PartialDFP:
		ins := []Input{
			{"A", d.A, d.VRows, d.VCols},
			{"H0", d.InitialH(), d.VCols, d.VCols},
			{"x0", d.InitialX(), d.VCols, 1},
		}
		if alg != algorithms.PartialDFP {
			ins = append(ins, Input{"b", d.Label(), d.VRows, 1})
		}
		return ins, nil
	}
	return nil, fmt.Errorf("data: unknown workload %q", alg)
}

// absAll returns |m| built on the cells of m, a dense matrix nothing else
// holds: one pass, and a new header, since the cells change under it.
func absAll(m *matrix.Matrix) *matrix.Matrix {
	cells := m.Buffer()
	for i, v := range cells {
		if v < 0 {
			cells[i] = -v
		}
	}
	return matrix.NewDenseData(m.Rows(), m.Cols(), cells)
}

// Table2Row is one row of the dataset-statistics table.
type Table2Row struct {
	Dataset     string
	Rows, Cols  int64
	Sparsity    float64
	FootprintGB float64
}

// Table2 returns the paper's Table 2.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, name := range Names {
		s := Specs[name]
		rows = append(rows, Table2Row{
			Dataset: name, Rows: s.VRows, Cols: s.VCols,
			Sparsity: s.Sparsity, FootprintGB: s.FootprintGB,
		})
	}
	return rows
}
