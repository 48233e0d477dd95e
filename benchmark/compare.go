package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile declares the metrics and their bounds; baselineFile records
// the spreads measured when the benchmark was defined. Both are found from
// the repository root or from the benchmark's own directory.
const (
	benchmarkFile = "BENCHMARK.json"
	baselineFile  = "baseline.json"
)

// locate returns the first of the candidate paths that exists (the first
// candidate if none does, so that the error names it).
func locate(candidates ...string) string {
	for _, c := range candidates {
		if _, err := os.Stat(c); err == nil {
			return c
		}
	}
	return candidates[0]
}

// declared is the part of BENCHMARK.json the comparison needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// baseline records, per workload and end-to-end metric, the run-to-run
// spread (quartile distance over median of ten seeds) measured on the commit
// that defined the benchmark.
type baseline struct {
	Spread map[string]map[string]float64 `json:"spread"`
}

// exactWorkloads run one client, so their op order — and with it every exact
// count — is the same on every run of one seed.
var exactWorkloads = map[string]bool{"compile_cold": true, "exec_heavy": true}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// compareReports prints one row per workload and metric of two --out files
// and returns the exit code: 1 if any row is worse. An end-to-end metric is
// worse when it moved against its direction by more than its bound, and
// unresolved when the recorded run-to-run spread exceeds that bound; an
// exact per-layer count is worse when it differs at all.
func compareReports(oldPath, newPath string, out io.Writer) int {
	var decl declared
	var base baseline
	var older, newer report
	declPath := locate(benchmarkFile, filepath.Join("..", benchmarkFile))
	for path, v := range map[string]any{declPath: &decl, oldPath: &older, newPath: &newer} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if err := readJSON(locate(filepath.Join("benchmark", baselineFile), baselineFile), &base); err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if older.Seed != newer.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d, %d): exact counts are compared only under one seed\n", older.Seed, newer.Seed)
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tratio (change/parent)\tverdict")
	worse := 0
	row := func(w, metric string, a, b float64, verdict string) {
		ratio := "-"
		if a != 0 {
			ratio = fmt.Sprintf("%.4f", b/a)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\n", w, metric, a, b, ratio, verdict)
		if verdict == "worse" {
			worse++
		}
	}
	for _, wl := range workloads {
		o, n := older.Workloads[wl.name], newer.Workloads[wl.name]
		if o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		for _, d := range decl.EndToEnd {
			a, b := o.EndToEnd.Metrics[d.Name], n.EndToEnd.Metrics[d.Name]
			loss := b/a - 1 // share by which the metric got worse
			if d.Better == "higher" {
				loss = 1 - b/a
			}
			verdict := "ok"
			switch {
			case base.Spread[wl.name][d.Name] > d.Bound:
				verdict = "unresolved"
			case loss > d.Bound:
				verdict = "worse"
			}
			row(wl.name, d.Name, a, b, verdict)
		}
		if o.PerLayer == nil || n.PerLayer == nil {
			continue
		}
		for _, d := range layerDefs {
			a, b := o.PerLayer.Metrics[d.name], n.PerLayer.Metrics[d.name]
			verdict := "info"
			if d.exact && exactWorkloads[wl.name] && older.Seed == newer.Seed {
				verdict = "ok"
				if a != b {
					verdict = "worse"
				}
			}
			row(wl.name, d.name, a, b, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(out, "%d row(s) worse\n", worse)
		return 1
	}
	return 0
}
