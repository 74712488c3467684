package drs_test

import (
	"fmt"
	"log"

	drs "github.com/drs-repro/drs"
)

// Model an operator topology, estimate its latency and ask DRS for the
// optimal allocations — the library's core workflow, no engine or
// simulator involved. The topology is the paper's Figure 2 shape: a split
// (A feeds B and C), a join (C and D feed E) and a feedback loop (E back
// to A); the traffic equations are solved loop included.
func Example() {
	// Operator rates: service_rate is µ (tuples/s one processor handles);
	// the third argument is the operator's external arrival rate.
	topo, err := drs.NewTopologyBuilder().
		AddOperator("A", 50, 10). // source: 10 tuples/s arrive from outside
		AddOperator("B", 40, 0).
		AddOperator("C", 60, 0).
		AddOperator("D", 45, 4). // second source
		AddOperator("E", 55, 0).
		Connect("A", "B", 0.6). // split: 60% of A's output goes to B...
		Connect("A", "C", 0.4). // ...and 40% to C
		Connect("C", "E", 1.0).
		Connect("D", "E", 1.0). // join at E
		Connect("E", "A", 0.5). // feedback loop, gain 0.5
		Build()
	if err != nil {
		log.Fatal(err)
	}
	model, err := drs.NewModelFromTopology(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Solved arrival rates (traffic equations, loop included):")
	for _, op := range model.Rates() {
		fmt.Printf("  %-2s lambda = %6.2f tuples/s  (mu = %5.1f)\n", op.Name, op.Lambda, op.Mu)
	}

	// Program (4): best latency with at most 12 processors.
	const kmax = 12
	alloc, err := model.AssignProcessors(kmax)
	if err != nil {
		log.Fatal(err)
	}
	est, err := model.ExpectedSojourn(alloc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AssignProcessors(%d) = %v, E[T] = %.2f ms (floor %.2f ms)\n",
		kmax, alloc, est*1e3, model.LowerBound()*1e3)

	// Program (6): fewest processors that keep E[T] under 80 ms.
	const tmax = 0.080
	minAlloc, err := model.MinProcessors(tmax)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, k := range minAlloc {
		total += k
	}
	estMin, err := model.ExpectedSojourn(minAlloc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MinProcessors(%.0f ms) = %v, %d processors, E[T] = %.2f ms\n",
		tmax*1e3, minAlloc, total, estMin*1e3)

	// What a bad placement costs: move two processors away from the first
	// operator that can spare them and re-estimate.
	bad := append([]int(nil), alloc...)
	for i := range bad {
		if bad[i] > 2 {
			bad[i] -= 2
			bad[(i+1)%len(bad)] += 2
			break
		}
	}
	estBad, err := model.ExpectedSojourn(bad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("misplacing two processors %v -> %v costs %.2f ms -> %.2f ms\n",
		alloc, bad, est*1e3, estBad*1e3)
	// Output:
	// Solved arrival rates (traffic equations, loop included):
	//   A  lambda =  15.00 tuples/s  (mu =  50.0)
	//   B  lambda =   9.00 tuples/s  (mu =  40.0)
	//   C  lambda =   6.00 tuples/s  (mu =  60.0)
	//   D  lambda =   4.00 tuples/s  (mu =  45.0)
	//   E  lambda =  10.00 tuples/s  (mu =  55.0)
	// AssignProcessors(12) = [3 3 2 2 2], E[T] = 64.16 ms (floor 63.98 ms)
	// MinProcessors(80 ms) = [2 1 1 1 1], 6 processors, E[T] = 73.44 ms
	// misplacing two processors [3 3 2 2 2] -> [1 5 2 2 2] costs 64.16 ms -> 73.30 ms
}
