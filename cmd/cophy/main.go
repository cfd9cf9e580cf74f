// Command cophy is the CoPhy index advisor CLI. It builds the TPC-H
// statistics catalog, generates (or accepts) a workload, runs the
// advisor and prints the recommended indexes with their sizes, the
// estimated improvement over the baseline configuration, and the
// solver's optimality gap.
//
// Examples:
//
//	cophy -workload hom -queries 200 -budget 0.5
//	cophy -workload het -queries 100 -skew 2 -system B -explain
//	cophy -workload hom -queries 100 -pareto
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	kind := flag.String("workload", "hom", "workload kind: hom (TPC-H templates) or het (diverse SPJ)")
	file := flag.String("file", "", "load the workload from a SQL file instead of generating one")
	queries := flag.Int("queries", 200, "number of SELECT statements")
	updates := flag.Float64("updates", 0, "fraction of additional UPDATE statements")
	skew := flag.Float64("skew", 0, "data skew z (0 = uniform, 2 = highly skewed)")
	system := flag.String("system", "A", "cost-model profile: A or B")
	budget := flag.Float64("budget", 1.0, "storage budget as a fraction M of the data size")
	gap := flag.Float64("gap", 0.05, "stop when within this fraction of the optimal solution")
	seed := flag.Int64("seed", 42, "workload seed")
	pareto := flag.Bool("pareto", false, "treat the storage budget as a soft constraint and print the Pareto curve")
	explain := flag.Bool("explain", false, "print a query plan before/after for the costliest statement")
	flag.Parse()

	prof, err := engine.SystemByName(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: 1, Skew: *skew})
	eng := engine.New(cat, prof)

	var w *workload.Workload
	if *file != "" {
		text, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		w, err = workload.Parse(cat, string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	} else {
		switch *kind {
		case "hom":
			w = workload.Hom(workload.HomConfig{Queries: *queries, UpdateFraction: *updates, Seed: *seed})
		case "het":
			w = workload.Het(workload.HetConfig{Queries: *queries, UpdateFraction: *updates, Seed: *seed})
		default:
			fmt.Fprintf(os.Stderr, "unknown workload kind %q\n", *kind)
			os.Exit(2)
		}
	}

	ad := cophy.NewAdvisor(cat, eng, cophy.Options{GapTol: *gap, RootIters: 160, MaxNodes: 32})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	fmt.Printf("workload %s: %d statements; %d candidate indexes; budget %.2f × data (%.1f MB)\n",
		w.Name, w.Size(), len(s), *budget, float64(cat.TotalBytes())*(*budget)/(1<<20))

	if *pareto {
		target := *budget * float64(cat.TotalBytes())
		points, times, err := ad.SoftStorageSweep(w, s, cophy.NoConstraints(), target, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nPareto curve for the soft storage constraint (target %.1f MB):\n", target/(1<<20))
		fmt.Printf("%-8s %-14s %-14s %-8s %s\n", "lambda", "workload cost", "storage (MB)", "solve", "indexes")
		for _, p := range points {
			fmt.Printf("%-8.2f %-14.0f %-14.1f %-8.2fs %d\n",
				p.Lambda, p.Cost, p.SizeBytes/(1<<20), p.SolveTime.Seconds(), len(p.Indexes))
		}
		fmt.Printf("shared: inum %.2fs build %.2fs\n", times.INUM.Seconds(), times.Build.Seconds())
		return
	}

	res, err := ad.Recommend(w, s, cophy.FractionOfData(cat, *budget))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if res.Infeasible {
		fmt.Println("problem infeasible; offending constraints:", res.Violated)
		os.Exit(1)
	}

	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	baseCost, _ := eng.WorkloadCost(w, base)
	recCost, _ := eng.WorkloadCost(w, ad.Config(res))

	fmt.Printf("\nrecommended configuration (%d indexes):\n", len(res.Indexes))
	var total int64
	for _, ix := range res.Indexes {
		sz := ix.Bytes(cat.Table(ix.Table))
		total += sz
		fmt.Printf("  %-70s %8.1f MB\n", ix.String(), float64(sz)/(1<<20))
	}
	fmt.Printf("total index storage: %.1f MB\n", float64(total)/(1<<20))
	fmt.Printf("workload cost: %.0f -> %.0f  (%.1f%% improvement, optimizer ground truth)\n",
		baseCost, recCost, (1-recCost/baseCost)*100)
	fmt.Printf("solver: gap %.1f%% of optimal; inum %.2fs build %.2fs solve %.2fs\n",
		res.Gap*100, res.Times.INUM.Seconds(), res.Times.Build.Seconds(), res.Times.Solve.Seconds())

	if *explain {
		explainWorst(eng, w, base, ad.Config(res))
	}
}

// explainWorst shows the before/after plan of the statement with the
// highest baseline cost.
func explainWorst(eng *engine.Engine, w *workload.Workload, base, rec *engine.Config) {
	var worst *workload.Query
	worstCost := -1.0
	for _, st := range w.Queries() {
		c, err := eng.WhatIfCost(st.Query, base)
		if err == nil && c > worstCost {
			worstCost = c
			worst = st.Query
		}
	}
	if worst == nil {
		return
	}
	fmt.Printf("\ncostliest statement: %s\n%s\n", worst.ID, worst.String())
	before, _ := eng.WhatIfPlan(worst, base)
	after, _ := eng.WhatIfPlan(worst, rec)
	fmt.Printf("baseline plan:\n%s", before)
	fmt.Printf("recommended plan:\n%s", after)
}
