// Command bench is the repository's benchmark: four workloads that
// drive the advisor and the daemon end to end through their public
// functions, and a traced run of each that decomposes the end-to-end
// numbers into layers. BENCHMARK.json at the repository root declares
// every metric; README.md in this directory explains the design.
//
//	go run ./bench                       every workload, untraced then traced
//	go run ./bench -aa                   the suite twice; fails if the two disagree beyond the bounds
//	go run ./bench -workload het500_cold -seed 7 -seconds 20 -trace 1
//
// One workload per process: the suite starts a child of the same
// binary for every run, so peak memory and collector state never leak
// from one workload into the next.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result line (empty: run the suite)")
	seed := flag.Int64("seed", 42, "workload seed; the program sees only the inputs generated from it")
	seconds := flag.Float64("seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	quick := flag.Bool("quick", false, "tiny inputs, for smoke tests only; not a measurement")
	aa := flag.Bool("aa", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()

	// Both paths are relative to the repository root, where the
	// benchmark is run from.
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes, outDir: "bench/out"}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(m.RunSeconds)
	}
	if *quick {
		cfg.sizes = quickSizes
	}
	if cfg.workload == "" {
		if err := runSuite(m, cfg, *quick, *aa); err != nil {
			fatal(err)
		}
		return
	}
	line, err := runWorkload(os.Stdout, m, cfg)
	if err != nil {
		fatal(err)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process and prints its report.
func runWorkload(out io.Writer, m *manifest, cfg config) (resultLine, error) {
	if !m.hasWorkload(cfg.workload) {
		return resultLine{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var r *report
	var err error
	switch cfg.workload {
	case "hom1000_cold":
		r, err = runCold(cfg, false)
	case "het500_cold":
		r, err = runCold(cfg, true)
	case "hom1000_session":
		r, err = runSession(cfg)
	case "daemon_mix":
		r, err = runDaemon(cfg)
	default:
		err = fmt.Errorf("workload %q is declared but not implemented", cfg.workload)
	}
	if err != nil {
		return resultLine{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	return r.print(out, m, cfg.trace)
}
