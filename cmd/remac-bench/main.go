// remac-bench regenerates the paper's evaluation tables and figures, and
// the fault and integrity extensions, on the simulated cluster.
//
// Usage:
//
//	remac-bench                     # run every experiment
//	remac-bench -experiment fig9    # run one (-h lists the ids)
//	remac-bench -trace out.json     # also dump every run's operator spans
//	                                # as JSON lines
//	remac-bench -json out.json      # also write the selected tables as a
//	                                # machine-readable JSON array
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"remac/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "", "experiment to run, one of "+strings.Join(bench.IDs(), ", ")+" (default: all)")
	traceFile := flag.String("trace", "", "write every run's operator spans to this file as JSON lines")
	jsonFile := flag.String("json", "", "write the selected tables to this file as JSON")
	flag.Parse()

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		bench.TraceTo(f)
	}

	ids := bench.IDs()
	if *experiment != "" {
		ids = []string{*experiment}
	}
	var tables []*bench.Table
	for _, id := range ids {
		start := time.Now()
		table, err := bench.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tables = append(tables, table)
		fmt.Print(table.String())
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, tables); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
