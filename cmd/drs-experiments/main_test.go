package main

import (
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/experiments"
)

func TestAppsFor(t *testing.T) {
	both, err := appsFor("both")
	if err != nil || len(both) != 2 {
		t.Errorf("both = %v, %v", both, err)
	}
	one, err := appsFor("vld")
	if err != nil || len(one) != 1 || one[0] != experiments.VLD {
		t.Errorf("vld = %v, %v", one, err)
	}
	if _, err := appsFor("nope"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no experiment should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-app", "nope", "fig6"}); err == nil {
		t.Error("unknown app should error")
	}
	// A bad value is refused by the flag's name, not read as the default.
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"-duration", "-5", "table2"}},
		{"-duration", []string{"-duration", "nan", "fig8"}},
		{"-iters", []string{"-iters", "-3", "table2"}},
	} {
		if err := run(c.args); err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("run(%v) = %v, want an error naming %s", c.args, err, c.flag)
		}
	}
}

// TestTableDrivesUsageAndAll pins the one table: every row is in the
// package doc's usage line and in the "need exactly one experiment" error,
// in table order, and `all` visits the table in order — the wall-clock
// rows (trace, table2) after every simulation.
func TestTableDrivesUsageAndAll(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	if want := "<" + strings.Join(names(), "|") + ">"; !strings.Contains(f.Doc.Text(), want) {
		t.Errorf("package doc usage line does not list %s", want)
	}
	err = run(nil)
	if err == nil || !strings.HasSuffix(err.Error(), ": "+strings.Join(names(), " ")) {
		t.Errorf("no-argument error = %v, want the table's names in order", err)
	}
	todo, err := plan("all")
	if err != nil || len(todo) != len(table) {
		t.Fatalf("plan(all) = %d rows, %v; want the whole table", len(todo), err)
	}
	var timed []string
	for i, x := range todo {
		if x.name != table[i].name {
			t.Errorf("all visits %q at %d, want %q", x.name, i, table[i].name)
		}
		if x.wallClock {
			timed = append(timed, x.name)
		} else if len(timed) > 0 {
			t.Errorf("simulation row %q runs after wall-clock rows %v", x.name, timed)
		}
	}
	if got := strings.Join(timed, " "); got != "trace table2" {
		t.Errorf("wall-clock rows = %q, want trace then table2", got)
	}
	for _, x := range table {
		if one, err := plan(x.name); err != nil || len(one) != 1 || one[0].name != x.name {
			t.Errorf("plan(%q) = %v, %v", x.name, one, err)
		}
	}
}

func TestRunShortExperiments(t *testing.T) {
	// Heavily scaled-down sanity runs through the real dispatch path.
	if err := run([]string{"-app", "vld", "-duration", "60", "fig6"}); err != nil {
		t.Errorf("fig6: %v", err)
	}
	if err := run([]string{"-duration", "60", "fig8"}); err != nil {
		t.Errorf("fig8: %v", err)
	}
	if err := run([]string{"-iters", "50", "table2"}); err != nil {
		t.Errorf("table2: %v", err)
	}
	if err := run([]string{"-duration", "240", "churn"}); err != nil {
		t.Errorf("churn: %v", err)
	}
	if err := run([]string{"-duration", "240", "chaos"}); err != nil {
		t.Errorf("chaos: %v", err)
	}
	if err := run([]string{"-duration", "150", "restart"}); err != nil {
		t.Errorf("restart: %v", err)
	}
	if err := run([]string{"-scenario", "no-such-file.json", "chaos"}); err == nil {
		t.Error("missing scenario file should error")
	}
}

// TestSeedPicksTheRun: a row is a pure function of -seed — the same seed
// prints the same rows, another seed other ones.
func TestSeedPicksTheRun(t *testing.T) {
	fig6 := func(seed string) string {
		t.Helper()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		out := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			out <- string(b)
		}()
		err = run([]string{"-app", "vld", "-duration", "60", "-seed", seed, "fig6"})
		os.Stdout = stdout
		w.Close()
		if err != nil {
			t.Fatalf("fig6 -seed %s: %v", seed, err)
		}
		return <-out
	}
	a := fig6("2")
	if b := fig6("2"); a != b {
		t.Errorf("-seed 2 printed two different fig6 rows:\n%s\n%s", a, b)
	}
	if c := fig6("1"); a == c {
		t.Errorf("-seed 1 and -seed 2 printed the same fig6 rows:\n%s", a)
	}
}
