// Command drsctl applies the DRS model to a user-supplied topology
// description: it estimates sojourn times, recommends allocations under a
// processor budget (Program (4)) or a latency target (Program (6)), can
// validate a recommendation with a discrete-event simulation, can run the
// topology live under the DRS Supervisor — the closed §IV control loop:
// measure, re-solve, rebalance — can run *several* topologies on one
// shared machine pool under the cluster Scheduler (multi-tenant
// arbitration with weighted max-min fairness and preemption), and can
// `serve` the topology behind the network ingest front end — HTTP/TCP
// clients in, model-driven admission control and explicit backpressure at
// the door, scale-out against the offered (pre-shed) arrival rate.
//
// Usage:
//
//	drsctl -topology topo.json model -alloc 10,11,1
//	drsctl -topology topo.json recommend -kmax 22
//	drsctl -topology topo.json recommend -tmax-ms 500
//	drsctl -topology topo.json simulate -alloc 10,11,1 -duration 600
//	drsctl -topology topo.json quantile -q 0.99 -target-ms 2500
//	drsctl -topology topo.json supervise -tmax-ms 500 -duration 30
//	drsctl -topology topo.json supervise -kmax 8 -duration 30
//	drsctl -topology topo.json serve -tmax-ms 500 -http 127.0.0.1:8080 -duration 60
//	drsctl -topology topo.json serve -tmax-ms 500 -worker-listen 127.0.0.1:9090 -min-workers 2 ...
//	drsctl -topology topo.json worker -connect 127.0.0.1:9090
//	drsctl schedule -topologies api.json,batch.json -tmax-ms 500,900 -duration 30
//
// The topology file format:
//
//	{
//	  "operators": [
//	    {"name": "extract", "service_rate": 2.22, "external_rate": 13}
//	  ],
//	  "edges": [
//	    {"from": "extract", "to": "match", "selectivity": 1.0}
//	  ]
//	}
//
// service_rate is µ_i (tuples/sec per processor); external_rate is the
// operator's share of λ0. Loops are allowed (and solved) as long as the
// cycle gain is below one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	drs "github.com/drs-repro/drs"
	"github.com/drs-repro/drs/internal/queueing"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
	"github.com/drs-repro/drs/internal/topology"
)

// topoFile is the JSON schema of -topology (fuzz-hardened in the topology
// package, shared with everything else that reads the format).
type topoFile = topology.File

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drsctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("drsctl", flag.ContinueOnError)
	topoPath := fs.String("topology", "", "path to the topology JSON file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// schedule arbitrates several topologies and takes its own -topologies
	// list instead of the shared -topology flag.
	if fs.NArg() >= 1 && fs.Arg(0) == "schedule" {
		return cmdSchedule(fs.Args()[1:])
	}
	if *topoPath == "" {
		return fmt.Errorf("-topology is required")
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("need a subcommand: model, recommend, simulate, supervise, serve, worker, quantile or schedule")
	}
	topo, tf, err := loadTopology(*topoPath)
	if err != nil {
		return err
	}
	model, err := drs.NewModelFromTopology(topo)
	if err != nil {
		return err
	}
	sub := fs.Arg(0)
	rest := fs.Args()[1:]
	switch sub {
	case "model":
		return cmdModel(model, rest)
	case "recommend":
		return cmdRecommend(model, rest)
	case "simulate":
		return cmdSimulate(model, tf, rest)
	case "supervise":
		return cmdSupervise(tf, rest)
	case "serve":
		return cmdServe(tf, rest)
	case "worker":
		return cmdWorker(tf, rest)
	case "quantile":
		return cmdQuantile(model, rest)
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// cmdQuantile sizes each operator for a per-operator sojourn quantile
// target — the "99% of tuples within t" reading of a real-time constraint
// (an extension; the paper's Program (6) bounds the mean).
func cmdQuantile(model *drs.Model, args []string) error {
	fs := flag.NewFlagSet("quantile", flag.ContinueOnError)
	q := fs.Float64("q", 0.99, "quantile in (0,1)")
	targetMS := fs.Float64("target-ms", 0, "per-operator sojourn quantile target in ms (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetMS <= 0 {
		return fmt.Errorf("-target-ms is required and must be positive")
	}
	if *q <= 0 || *q >= 1 {
		return fmt.Errorf("-q must be in (0,1), got %g", *q)
	}
	target := *targetMS / 1e3
	fmt.Printf("%-16s %6s %22s\n", "operator", "k", fmt.Sprintf("P%.0f sojourn (ms)", *q*100))
	total := 0
	for _, op := range model.Rates() {
		k, err := queueing.MinServersForQuantile(op.Lambda, op.Mu, target, *q)
		if err != nil {
			return fmt.Errorf("operator %s: %w", op.Name, err)
		}
		total += k
		fmt.Printf("%-16s %6d %22.2f\n", op.Name, k, queueing.SojournQuantile(op.Lambda, op.Mu, k, *q)*1e3)
	}
	fmt.Printf("total processors: %d\n", total)
	return nil
}

func loadTopology(path string) (*drs.Topology, topoFile, error) {
	return topology.Load(path)
}

func parseAlloc(s string, n int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-alloc is required (e.g. -alloc 10,11,1)")
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("allocation has %d entries, topology has %d operators", len(parts), n)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad allocation entry %q: %w", p, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("bad allocation entry %q: every operator needs at least one processor", p)
		}
		out[i] = v
	}
	return out, nil
}

func cmdModel(model *drs.Model, args []string) error {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	allocStr := fs.String("alloc", "", "comma-separated processors per operator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alloc, err := parseAlloc(*allocStr, model.N())
	if err != nil {
		return err
	}
	fmt.Printf("lambda0 = %.3f tuples/s\n", model.Lambda0())
	fmt.Printf("%-16s %12s %12s %6s %14s\n", "operator", "lambda", "mu", "k", "E[Ti] (ms)")
	for i, op := range model.Rates() {
		fmt.Printf("%-16s %12.3f %12.3f %6d %14.2f\n",
			op.Name, op.Lambda, op.Mu, alloc[i], model.OperatorSojourn(i, alloc[i])*1e3)
	}
	est, err := model.ExpectedSojourn(alloc)
	if err != nil {
		return err
	}
	fmt.Printf("expected total sojourn E[T] = %.2f ms (lower bound %.2f ms)\n",
		est*1e3, model.LowerBound()*1e3)
	return nil
}

func cmdRecommend(model *drs.Model, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	kmax := fs.Int("kmax", 0, "processor budget (Program (4))")
	tmaxMS := fs.Float64("tmax-ms", 0, "latency target in ms (Program (6))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *kmax > 0 && *tmaxMS > 0:
		return fmt.Errorf("pass either -kmax or -tmax-ms, not both")
	case *kmax > 0:
		alloc, err := model.AssignProcessors(*kmax)
		if err != nil {
			return err
		}
		est, err := model.ExpectedSojourn(alloc)
		if err != nil {
			return err
		}
		fmt.Printf("AssignProcessors(%d) = %v, estimated E[T] = %.2f ms\n", *kmax, alloc, est*1e3)
	case *tmaxMS > 0:
		alloc, err := model.MinProcessors(*tmaxMS / 1e3)
		if err != nil {
			return err
		}
		est, err := model.ExpectedSojourn(alloc)
		if err != nil {
			return err
		}
		total := 0
		for _, k := range alloc {
			total += k
		}
		fmt.Printf("MinProcessors(%.0f ms) = %v (%d processors), estimated E[T] = %.2f ms\n",
			*tmaxMS, alloc, total, est*1e3)
	default:
		return fmt.Errorf("pass -kmax or -tmax-ms")
	}
	return nil
}

func cmdSimulate(model *drs.Model, tf topoFile, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	allocStr := fs.String("alloc", "", "comma-separated processors per operator")
	duration := fs.Float64("duration", 600, "simulated seconds")
	seed := fs.Uint64("seed", 1, "simulation seed")
	hopMS := fs.Float64("hop-ms", 0, "per-hop network delay mean in ms (ignored by the model)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %g", *duration)
	}
	alloc, err := parseAlloc(*allocStr, model.N())
	if err != nil {
		return err
	}
	cfg, err := simConfigFrom(tf, alloc, *seed, *hopMS/1e3)
	if err != nil {
		return err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	s.SetWarmup(*duration / 10)
	s.RunUntil(*duration)
	cs := s.CompletedStats()
	est, err := model.ExpectedSojourn(alloc)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d completions over %.0fs\n", cs.Count(), *duration)
	fmt.Printf("measured  E[T] = %.2f ms (stddev %.2f ms)\n", cs.Mean()*1e3, cs.StdDev()*1e3)
	fmt.Printf("estimated E[T] = %.2f ms (ratio %.2f)\n", est*1e3, cs.Mean()/est)
	return nil
}

// simConfigFrom builds an exponential-service DES matching the model's
// assumptions, from the same topology file.
func simConfigFrom(tf topoFile, alloc []int, seed uint64, hopDelay float64) (sim.Config, error) {
	cfg := sim.Config{Alloc: alloc, Seed: seed}
	index := make(map[string]int, len(tf.Operators))
	for i, op := range tf.Operators {
		index[op.Name] = i
		cfg.Operators = append(cfg.Operators, sim.OperatorSpec{Service: stats.Exponential{Rate: op.ServiceRate}})
		if op.ExternalRate > 0 {
			cfg.Sources = append(cfg.Sources, sim.SourceSpec{
				Op:       i,
				Arrivals: sim.PoissonArrivals{Rate: op.ExternalRate},
			})
		}
	}
	var hop stats.Dist
	if hopDelay > 0 {
		hop = stats.Exponential{Rate: 1 / hopDelay}
	}
	for _, e := range tf.Edges {
		emit, err := sim.NewFractionalEmission(e.Selectivity)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Edges = append(cfg.Edges, sim.EdgeSpec{
			From: index[e.From], To: index[e.To], Emit: emit, NetDelay: hop,
		})
	}
	return cfg, nil
}
