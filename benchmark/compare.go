package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// resultFile is what `benchmark run` writes and `benchmark compare`
// reads: every run of every workload, end-to-end and per-layer.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Repeats int         `json:"repeats"`
	Runs    []outcome   `json:"runs"`
}

// cmdRunSet runs every workload, untraced then traced, -repeats times,
// printing each as it goes and writing the lot to -out. A broken book
// ends the set with exit 1 and no file.
func cmdRunSet(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of every generated input (repeat r uses seed+r)")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per run")
	repeats := fs.Int("repeats", 1, "runs per workload and pass; compare needs several to see spread")
	outPath := fs.String("out", "", "result file to write (JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := resultFile{Env: readEnvironment(), Seed: *seed, Seconds: *seconds, Repeats: *repeats}
	fmt.Printf("env: %+v\n", file.Env)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			for r := 0; r < *repeats; r++ {
				out, err := runWorkload(w, *seed+int64(r), *seconds, traced, root)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if code := report(out); code != 0 {
					return code
				}
				file.Runs = append(file.Runs, *out)
			}
		}
	}
	if *outPath == "" {
		return 0
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// values collects one end-to-end metric's runs on one workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func (f *resultFile) failedShare(workload string) float64 {
	var failed, attempted uint64
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict is one row of the comparison.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	Change           float64 // (B−A)/A, signed so that positive is worse
	Spread           float64 // widest interquartile share of the two sides
	Verdict          string  // ok, regressed, unresolved
}

// judge compares B against A on one metric: regressed when B's median is
// worse than A's by more than the bound, unresolved when either side's
// own spread is wider than the bound (the data cannot tell), else ok.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{Metric: d.Name, A: median(a), B: median(b)}
	if v.A != 0 {
		v.Change = (v.B - v.A) / math.Abs(v.A)
	}
	if d.Better == "higher" {
		v.Change = -v.Change
	}
	v.Spread = max(relSpread(a), relSpread(b))
	switch {
	case v.Spread > d.Bound:
		v.Verdict = "unresolved"
	case v.Change > d.Bound:
		v.Verdict = "regressed"
	default:
		v.Verdict = "ok"
	}
	return v
}

// cmdCompare prints, per workload and end-to-end metric, both medians,
// the relative change and the verdict under BENCHMARK.json's bounds; it
// exits 1 on any regression or on a higher failed share.
func cmdCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	return compareFiles(&files[0], &files[1], w)
}

func compareFiles(a, b *resultFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(d, av, bv)
			if v.Verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-16s %14.4f %14.4f %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl.Name, d.Name, v.A, v.B, v.Change*100, v.Spread*100, d.Bound*100, v.Verdict)
		}
		if fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-15s failed share rose from %.6f to %.6f: regressed\n", wl.Name, fa, fb)
			code = 1
		}
	}
	fmt.Fprintln(w, `not judged: throughput, CPU per record and latency (sut.goodput_rps, sut.cpu_us_per_rec, sut.e2e_*_ms, gen.admit_p99_ms) carry no bound; see README, "Demotions"`)
	return code
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}
