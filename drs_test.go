package drs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	drs "github.com/drs-repro/drs"
)

// TestPublicAPIWorkflow walks the full user journey through the facade:
// topology -> model -> allocation -> controller, plus the measurer path.
func TestPublicAPIWorkflow(t *testing.T) {
	topo, err := drs.NewTopologyBuilder().
		AddOperator("extract", 1/0.45, 13).
		AddOperator("match", 1/0.50, 0).
		AddOperator("aggregate", 1/0.01, 0).
		Connect("extract", "match", 1).
		Connect("match", "aggregate", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := drs.NewModelFromTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := model.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 10 || alloc[1] != 11 || alloc[2] != 1 {
		t.Errorf("allocation = %v, want the paper's (10:11:1)", alloc)
	}
	est, err := model.ExpectedSojourn(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if est <= model.LowerBound() || math.IsInf(est, 1) {
		t.Errorf("estimate %g out of range", est)
	}
	minK, err := model.MinProcessors(est * 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(minK), sum(alloc); got > want {
		t.Errorf("MinProcessors(%g) = %d procs, more than the full budget %d", est*1.1, got, want)
	}

	ctrl, err := drs.NewController(drs.ControllerConfig{
		Mode: drs.ModeMinLatency, Kmax: 22, MinGain: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Step(drs.Snapshot{
		Lambda0: 13,
		Ops: []drs.OpRates{
			{Name: "extract", Lambda: 13, Mu: 1 / 0.45},
			{Name: "match", Lambda: 13, Mu: 1 / 0.50},
			{Name: "aggregate", Lambda: 13, Mu: 100},
		},
		MeasuredSojourn: 1.2,
		Alloc:           []int{12, 9, 1},
		Kmax:            22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != drs.ActionRebalance {
		t.Errorf("action = %v (%s), want rebalance", d.Action, d.Reason)
	}
}

func TestPublicMeasurerPath(t *testing.T) {
	meas, err := drs.NewMeasurer(drs.MeasurerConfig{
		OperatorNames: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := drs.NewExecutorProbe()
	probe.TuplesArrived(100)
	probe.TuplesServed(100, int64(100*10*time.Millisecond))
	c := probe.Drain()
	err = meas.AddInterval(drs.IntervalReport{
		Duration:         time.Second,
		ExternalArrivals: 100,
		Ops: []drs.OpInterval{{
			Arrivals: c.Arrivals, Served: c.Served,
			Sampled: c.Served, BusyTime: c.BusyTime,
		}},
		SojournCount: 100,
		SojournTotal: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := meas.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Ops[0].Mu-100) > 1e-9 {
		t.Errorf("measured mu = %g, want 100", snap.Ops[0].Mu)
	}
	if math.Abs(snap.MeasuredSojourn-0.02) > 1e-9 {
		t.Errorf("measured sojourn = %g, want 0.02", snap.MeasuredSojourn)
	}
}

// TestFacadeSurface holds package drs's exported names to
// testdata/facade.golden, so the module's only importable surface changes
// on purpose: a new, renamed or dropped name fails here — edit the golden
// by hand, deliberately (DESIGN.md §16 records why the facade is what it
// is).
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "drs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			lines = append(lines, kind+" "+id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("func", d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add("type", sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(d.Tok.String(), id)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/facade.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("package drs's exported surface changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
