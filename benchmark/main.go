// Command benchmark is the repository's benchmark: an end-to-end,
// per-layer, noise-bounded measurement of the live DRS stack. A seeded
// single-process load generator drives real loopback sockets against a
// child process (this same binary, -role sut) that assembles the real
// stack — ingest gate and listeners, WAL, engine, worker tier, control
// loop, scheduler, decision log and tracer — through the packages' public
// constructors, with only the bolts supplied here so that the last one
// can stamp each record's completion.
//
// Usage, from the repository root (see BENCHMARK.json and README.md):
//
//	bash benchmark/run.sh --workload http-batch --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh run -seed 1 -out .bench_build/A.json              every workload, both passes
//	bash benchmark/run.sh compare .bench_build/A.json .bench_build/B.json   regression verdicts
//	bash benchmark/run.sh manifest                                          prints BENCHMARK.json
//
// The first form is the one command the driver runs: it prints every
// metric of the pass by name with its unit, checks that the books balance
// (exit 1 and no result line when they do not), and ends with one JSON
// line. --trace 0 reports the end-to-end metrics with every decorator and
// 1000 ‰ tracing off; --trace 1 reports the per-layer metrics from a
// traced pass plus the isolated layer probes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRunSet(args[1:])
		case "compare":
			return cmdCompare(args[1:], os.Stdout)
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	role := fs.String("role", "", "internal: \"sut\" runs the system under test as a child")
	name := fs.String("workload", "", "workload to run: http-batch, tcp-durable, remote-shuttle or drs-step")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *role == "sut" {
		pinToCPU(runtime.NumCPU() - 1)
		if err := runSUT(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload (one of http-batch, tcp-durable, remote-shuttle, drs-step) and --seconds >= 2")
		return 2
	}
	root, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	pinToCPU(0)
	out, err := runWorkload(w, *seed, *seconds, *trace != 0, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return report(out)
}

// report prints one outcome; a broken book prints its violations and no
// result line.
func report(out *outcome) int {
	for name, v := range out.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Problems = append(out.Problems, fmt.Sprintf("metric %s is %v", name, v))
			out.Metrics[name] = 0
			out.Correct = false
		}
	}
	if !out.Correct {
		for _, p := range out.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: BROKEN BOOK:", p)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s failed its checks (%d of %d operations failed); no metrics reported\n",
			out.Workload, out.Failed, out.Attempted)
		return 1
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// scratchRoot is where a run keeps its files: .bench_build under the
// working directory, which is the checkout root when the driver runs it.
// Nothing is read or written outside it.
func scratchRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Join(wd, ".bench_build", "runs")
	return root, os.MkdirAll(root, 0o755)
}

// environment is written into every result file.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SUTGOMAXPROCS is what the child runs with (see startSUT).
	SUTGOMAXPROCS string `json:"sut_gomaxprocs"`
	NumCPU        int    `json:"nproc"`
	CPUModel      string `json:"cpu_model"`
	Commit        string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		SUTGOMAXPROCS: sutGOMAXPROCS,
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		Commit:        commitID(),
	}
}
