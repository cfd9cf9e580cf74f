// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|table1,figure4,...] [-scale 1.0] [-seed 42] [-gap 0.05]
//
// With -scale 1 the workload sizes match the paper's axes
// (250/500/1000 statements); smaller scales run proportionally lighter
// instances with the same structure. Output is one text table per
// experiment with its claims checked, then a count of CoPhy+tool runs.
//
// Performance is not measured here: the repository's benchmark is
// `go run ./bench` (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment names, or 'all' ("+strings.Join(experiments.Names(), ",")+")")
	scale := flag.Float64("scale", 1.0, "workload-size multiplier (1.0 = paper scale)")
	seed := flag.Int64("seed", 42, "workload generation seed")
	gap := flag.Float64("gap", 0.05, "solver optimality-gap tolerance")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, GapTol: *gap}

	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	start := time.Now()
	grid := experiments.NewGrid(cfg)
	failed := 0
	for _, name := range names {
		name = strings.TrimSpace(name)
		rep, err := grid.Run(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			failed++
			continue
		}
		fmt.Println(rep.String())
	}
	fmt.Printf("total: %.1fs, %d CoPhy+tool run(s), %d experiment(s) failed\n", time.Since(start).Seconds(), grid.Runs(), failed)
	if failed > 0 {
		os.Exit(1)
	}
}
