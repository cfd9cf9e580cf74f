package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteResult is one pass over every workload: the untraced and the
// traced result line of each.
type suiteResult struct {
	EndToEnd map[string]resultLine `json:"end_to_end"`
	PerLayer map[string]resultLine `json:"per_layer"`
}

// results is what the suite leaves in <out>/results.json: where the
// numbers came from, then the numbers.
type results struct {
	Env   environment    `json:"environment"`
	Seed  int64          `json:"seed"`
	Quick bool           `json:"quick,omitempty"`
	Runs  []*suiteResult `json:"runs"`
}

// environment stamps a set of results. LinesOfCode is the non-test Go
// line count per package directory: the ROADMAP wants simplicity
// reported like a result.
type environment struct {
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	LinesOfCode map[string]int `json:"non_test_loc"`
}

func stampEnvironment(root string) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		LinesOfCode: make(map[string]int),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// A file that cannot be read is left out of the count, not fatal:
	// the stamp describes the results, it is not one of them.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if raw, err := os.ReadFile(path); err == nil {
			dir, _ := filepath.Rel(root, filepath.Dir(path))
			env.LinesOfCode[filepath.ToSlash(dir)] += bytes.Count(raw, []byte("\n"))
		}
		return nil
	})
	return env
}

// runChild runs one workload in a fresh process of this binary, passes
// its report through, and returns its result line.
func runChild(cfg config, quick bool, workload string, trace int) (resultLine, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if quick {
		args = append(args, "-quick")
	}
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return resultLine{}, err
	}
	if err := cmd.Start(); err != nil {
		return resultLine{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	runErr := cmd.Wait()
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s trace %d: no result line (%v): %v", workload, trace, runErr, err)
	}
	// A child that printed a result line with failed checks exits 1;
	// the suite reports the failures itself.
	return line, nil
}

func runSuiteOnce(m *manifest, cfg config, quick bool) (*suiteResult, error) {
	res := &suiteResult{EndToEnd: make(map[string]resultLine), PerLayer: make(map[string]resultLine)}
	for _, w := range m.Workloads {
		for trace, into := range []map[string]resultLine{res.EndToEnd, res.PerLayer} {
			line, err := runChild(cfg, quick, w.Name, trace)
			if err != nil {
				return nil, err
			}
			into[w.Name] = line
			fmt.Println()
		}
	}
	return res, nil
}

// printSummary prints every metric of every workload by name, with its
// unit.
func printSummary(m *manifest, res *suiteResult) {
	for _, part := range []struct {
		title string
		decls []metricDecl
		lines map[string]resultLine
	}{{"end-to-end (untraced)", m.EndToEnd, res.EndToEnd}, {"per-layer (traced)", m.PerLayer, res.PerLayer}} {
		fmt.Printf("== %s ==\n%-34s %-6s", part.title, "metric", "unit")
		for _, w := range m.Workloads {
			fmt.Printf(" %16s", w.Name)
		}
		fmt.Println()
		for _, d := range part.decls {
			fmt.Printf("%-34s %-6s", d.Name, d.Unit)
			for _, w := range m.Workloads {
				fmt.Printf(" %16.6g", part.lines[w.Name].Metrics[d.Name].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%-34s %-6s", "failed_share", "ratio")
		for _, w := range m.Workloads {
			l := part.lines[w.Name]
			fmt.Printf(" %16.6g", float64(l.Failed)/float64(max(l.Attempted, 1)))
		}
		fmt.Print("\n\n")
	}
}

// runSuite runs every workload untraced and traced, each in its own
// process; with aa it does so twice and fails when the two passes
// disagree on an end-to-end metric by more than the metric's bound.
func runSuite(m *manifest, cfg config, quick, aa bool) error {
	out := results{Env: stampEnvironment("."), Seed: cfg.seed, Quick: quick}
	passes := 1
	if aa {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		res, err := runSuiteOnce(m, cfg, quick)
		if err != nil {
			return err
		}
		out.Runs = append(out.Runs, res)
		printSummary(m, res)
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)

	var problems []string
	for _, res := range out.Runs {
		for _, lines := range []map[string]resultLine{res.EndToEnd, res.PerLayer} {
			for _, w := range m.Workloads {
				if l := lines[w.Name]; !l.Correct {
					problems = append(problems, fmt.Sprintf("%s: %d of %d output checks failed", w.Name, l.Failed, l.Attempted))
				}
			}
		}
	}
	if aa {
		a, b := out.Runs[0].EndToEnd, out.Runs[1].EndToEnd
		for _, w := range m.Workloads {
			for _, d := range m.EndToEnd {
				va, vb := a[w.Name].Metrics[d.Name].Value, b[w.Name].Metrics[d.Name].Value
				if share := math.Abs(vb-va) / math.Abs(va); share > d.Bound {
					problems = append(problems, fmt.Sprintf("A/A: %s on %s: %.6g then %.6g %s, %.1f%% apart, bound %.1f%%",
						d.Name, w.Name, va, vb, d.Unit, share*100, d.Bound*100))
				}
			}
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems", len(problems))
	}
	return nil
}
