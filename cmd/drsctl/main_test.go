package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func writeTopo(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validTopo = `{
  "operators": [
    {"name": "extract", "service_rate": 2.2222, "external_rate": 13},
    {"name": "match", "service_rate": 2.0},
    {"name": "aggregate", "service_rate": 100}
  ],
  "edges": [
    {"from": "extract", "to": "match", "selectivity": 1.0},
    {"from": "match", "to": "aggregate", "selectivity": 1.0}
  ]
}`

// runOut runs the command with stdout and stderr captured and returns
// what it printed to each.
func runOut(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	capture := func(f **os.File) (restore func() string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		orig := *f
		*f = w
		out := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			out <- string(b)
		}()
		return func() string {
			*f = orig
			w.Close()
			return <-out
		}
	}
	restoreOut, restoreErr := capture(&os.Stdout), capture(&os.Stderr)
	err = run(args)
	return restoreOut(), restoreErr(), err
}

func TestLoadTopology(t *testing.T) {
	topo, tf, err := loadTopology(writeTopo(t, validTopo))
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 3 || len(tf.Edges) != 2 {
		t.Errorf("loaded N=%d edges=%d", topo.N(), len(tf.Edges))
	}
	if _, _, err := loadTopology(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	if _, _, err := loadTopology(writeTopo(t, "{bad json")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, _, err := loadTopology(writeTopo(t, `{"operators": [], "edges": []}`)); err == nil {
		t.Error("empty topology should error")
	}
}

func TestParseAlloc(t *testing.T) {
	got, err := parseAlloc("10, 11,1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 11 || got[2] != 1 {
		t.Errorf("parseAlloc = %v", got)
	}
	for _, bad := range []string{"", "1,2", "a,b,c", "1,2,3,4", "-3,20,1", "0,1,1"} {
		if _, err := parseAlloc(bad, 3); err == nil {
			t.Errorf("parseAlloc(%q) should error", bad)
		}
	}
}

// TestParseListRejectsNonIntegers: integer flags of `drsctl schedule` used
// to parse through ParseFloat and truncate — "-min-slots 2.9" became 2 and
// "-priorities 1e3" was accepted.
func TestParseListRejectsNonIntegers(t *testing.T) {
	got, err := parseList("2, 3", 2, "min-slots", strconv.Atoi)
	if err != nil || got[0] != 2 || got[1] != 3 {
		t.Fatalf("parseList ints = %v, %v", got, err)
	}
	if got, err := parseList("7", 3, "priorities", strconv.Atoi); err != nil || len(got) != 3 || got[2] != 7 {
		t.Errorf("single value should broadcast: %v, %v", got, err)
	}
	for _, bad := range []string{"2.9", "1e3", "1,2.0", "", "1,2,3"} {
		if _, err := parseList(bad, 2, "min-slots", strconv.Atoi); err == nil {
			t.Errorf("parseList(%q) as ints should error", bad)
		}
	}
	if fs, err := parseList("2.9,1e3", 2, "tmax-ms", parseFloat); err != nil || fs[0] != 2.9 || fs[1] != 1000 {
		t.Errorf("parseList floats = %v, %v", fs, err)
	}
}

func TestRunSubcommands(t *testing.T) {
	path := writeTopo(t, validTopo)
	cases := [][]string{
		{"-topology", path, "model", "-alloc", "10,11,1"},
		{"-topology", path, "recommend", "-kmax", "22"},
		{"-topology", path, "recommend", "-tmax-ms", "1200"},
		{"-topology", path, "simulate", "-alloc", "10,11,1", "-duration", "30"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestSimulateSeedAndHop: -seed picks the simulation's random streams (the
// same seed prints the same report, another seed another one), and
// -hop-ms adds the network delay the model ignores, so measured ÷
// estimated rises with it — Fig. 7's gap, from the CLI.
func TestSimulateSeedAndHop(t *testing.T) {
	path := writeTopo(t, fastTopo)
	simulate := func(seed, hopMS string) (string, float64) {
		t.Helper()
		out, _, err := runOut(t, "-topology", path, "simulate", "-alloc", "1,1",
			"-duration", "60", "-seed", seed, "-hop-ms", hopMS)
		if err != nil {
			t.Fatalf("simulate -seed %s -hop-ms %s: %v", seed, hopMS, err)
		}
		ratio := -1.0
		for _, line := range strings.Split(out, "\n") {
			var est float64
			fmt.Sscanf(line, "estimated E[T] = %f ms (ratio %f)", &est, &ratio)
		}
		return out, ratio
	}
	a, flat := simulate("2", "0")
	if b, _ := simulate("2", "0"); a != b {
		t.Errorf("-seed 2 printed two different reports:\n%s\n%s", a, b)
	}
	if c, _ := simulate("1", "0"); a == c {
		t.Errorf("-seed 1 and -seed 2 printed the same report:\n%s", a)
	}
	if _, hop := simulate("2", "50"); flat <= 0 || hop <= flat {
		t.Errorf("measured/estimated = %.2f at -hop-ms 0 and %.2f at -hop-ms 50, want a rise", flat, hop)
	}
}

// TestRunErrors: bad input is refused before anything is printed, so no
// partial table or meaningless estimate precedes the error.
func TestRunErrors(t *testing.T) {
	path := writeTopo(t, validTopo)
	live := []string{"schedule", "-topologies", path, "-tmax-ms", "500", "-duration", "2"}
	cases := [][]string{
		{},                               // no topology
		{"-topology", path},              // no subcommand
		{"-topology", path, "bogus"},     // unknown subcommand
		{"-topology", path, "recommend"}, // neither kmax nor tmax
		{"-topology", path, "model"},     // missing alloc
		{"-topology", path, "recommend", "-kmax", "22", "-tmax-ms", "1"}, // both
		{"-topology", path, "model", "-alloc", "-3,20,1"},                // no processors
		{"-topology", path, "simulate", "-alloc", "10,11,1", "-duration", "0"},
		{"-topology", path, "simulate", "-alloc", "10,11,1", "-duration", "-5"},
		{"-topology", path, "quantile", "-q", "0", "-target-ms", "100"},
		{"-topology", path, "quantile", "-q", "1", "-target-ms", "100"},
		{"schedule", "-topologies", path, "-duration", "1"},                                 // no mode
		{"schedule", "-topologies", path, "-kmax", "4", "-tmax-ms", "50", "-duration", "1"}, // both modes
		{"schedule", "-topologies", path, "-kmax", "2", "-duration", "1"},                   // budget below the 3 operators
		append(live, "-fail-after", "1", "-fail-machines", "-1"),
		append(live, "-fail-after", "1", "-fail-machines", "0"),
		append(live, "-fail-after", "2"), // at -duration: the churn would never run
		append(live, "-fail-after", "1", "-fail-down", "-1"),
	}
	for _, args := range cases {
		out, _, err := runOut(t, args...)
		if err == nil {
			t.Errorf("run(%v) should error", args)
		}
		if out != "" {
			t.Errorf("run(%v) printed before failing:\n%s", args, out)
		}
	}

	// A bad flag value is refused by the flag's name before the command
	// boots, logs or prints anything.
	serve := func(extra ...string) []string {
		return append([]string{"-topology", path, "serve", "-tmax-ms", "500", "-http", "127.0.0.1:0", "-duration", "1"}, extra...)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-duration", serve("-duration", "-1")},
		{"-duration", append(live, "-duration", "0")},
		{"-duration", append(live, "-duration", "-1")},
		{"-slots", serve("-slots", "0")},
		{"-max-machines", serve("-max-machines", "0")},
		{"-client-rate", serve("-client-rate", "-5")},
		{"-min-workers", serve("-min-workers", "-2")},
		{"-kmax", []string{"-topology", path, "recommend", "-kmax", "-3"}},
		{"-tmax-ms", []string{"-topology", path, "recommend", "-tmax-ms", "-3"}},
		{"-interval-ms", serve("-interval-ms", "0")},
		{"-interval-ms", append(live, "-interval-ms", "-5")},
		{"-slots", append(live, "-slots", "0")},
		{"-max-machines", append(live, "-max-machines", "0")},
		{"-weights", append(live, "-weights", "-1")},
		{"-weights", append(live, "-weights", "0")},
		{"-min-slots", append(live, "-min-slots", "-1")},
		{"-hop-ms", []string{"-topology", path, "simulate", "-alloc", "10,11,1", "-hop-ms", "-5"}},
		{"-retry-for", []string{"-topology", path, "worker", "-connect", "127.0.0.1:1", "-retry-for", "-1"}},
		// A pool of 8 machines x 4 slots can neither hold a floor of 100
		// nor lease 100 slots up front; scenario refuses a negative
		// priority, and so does schedule.
		{"-min-slots", append(live, "-min-slots", "100")},
		{"-kmax", []string{"schedule", "-topologies", path, "-kmax", "100", "-duration", "2"}},
		// No lease can hold a floor above a fixed -kmax grant, nor floors
		// that sum past the pool's 32 slots.
		{"-min-slots", []string{"schedule", "-topologies", path, "-kmax", "4", "-min-slots", "10", "-duration", "1"}},
		{"-min-slots", []string{"schedule", "-topologies", path + "," + path, "-tmax-ms", "80", "-min-slots", "20,20", "-duration", "1"}},
		{"-priorities", append(live, "-priorities", "-5")},
		// A float check that says what it refuses lets NaN through, and no
		// target or duration means anything at +Inf.
		{"-tmax-ms", serve("-tmax-ms", "nan")},
		{"-tmax-ms", serve("-tmax-ms", "inf")},
		{"-duration", serve("-duration", "nan")},
		{"-client-rate", serve("-client-rate", "nan")},
		{"-tmax-ms", append(live, "-tmax-ms", "nan")},
		{"-weights", append(live, "-weights", "nan")},
		{"-duration", append(live, "-duration", "nan")},
		{"-q", []string{"-topology", path, "quantile", "-q", "nan", "-target-ms", "100"}},
		{"-target-ms", []string{"-topology", path, "quantile", "-target-ms", "nan"}},
		{"-duration", []string{"-topology", path, "simulate", "-alloc", "10,11,1", "-duration", "nan"}},
		{"-hop-ms", []string{"-topology", path, "simulate", "-alloc", "10,11,1", "-hop-ms", "nan"}},
		{"-tmax-ms", []string{"-topology", path, "recommend", "-tmax-ms", "nan"}},
	} {
		out, errOut, err := runOut(t, c.args...)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("run(%v) = %v, want an error naming %s", c.args, err, c.flag)
		}
		if out+errOut != "" {
			t.Errorf("run(%v) printed before failing:\n%s%s", c.args, out, errOut)
		}
	}
}

// TestUsageMatchesSwitch holds the package doc's Usage block and the
// missing-subcommand error to run's dispatch: every subcommand run accepts
// has a usage line and is named in the error, and neither names another.
func TestUsageMatchesSwitch(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "run" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var lits []ast.Expr
				switch x := n.(type) {
				case *ast.CaseClause:
					lits = x.List
				case *ast.BinaryExpr:
					if x.Op == token.EQL {
						lits = []ast.Expr{x.Y}
					}
				}
				for _, e := range lits {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, _ := strconv.Unquote(lit.Value); name != "" {
							dispatched = append(dispatched, name)
						}
					}
				}
				return true
			})
		}
	}
	var usage []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "drsctl" {
			continue
		}
		for i := 1; i < len(fields); i++ {
			if fields[i] == "-topology" {
				i++
			} else if !strings.HasPrefix(fields[i], "-") {
				usage = append(usage, fields[i])
				break
			}
		}
	}
	_, _, err = runOut(t, "-topology", writeTopo(t, validTopo))
	if err == nil {
		t.Fatal("no subcommand should error")
	}
	_, list, _ := strings.Cut(err.Error(), ": ")
	named := strings.Split(strings.ReplaceAll(list, " or ", ", "), ", ")
	slices.Sort(dispatched)
	for what, got := range map[string][]string{"usage block": usage, "missing-subcommand error": named} {
		slices.Sort(got)
		if got = slices.Compact(got); !slices.Equal(got, dispatched) {
			t.Errorf("%s names %v; run dispatches %v", what, got, dispatched)
		}
	}
}

// fastTopo has millisecond-scale services so a live supervised run stays
// short enough for a test.
const fastTopo = `{
  "operators": [
    {"name": "extract", "service_rate": 200, "external_rate": 40},
    {"name": "match", "service_rate": 150}
  ],
  "edges": [
    {"from": "extract", "to": "match", "selectivity": 1.0}
  ]
}`

// TestScheduleOneTopology: one topology file is one tenant on its own
// lease, in either mode. -kmax holds Program (4) on a fixed grant;
// -tmax-ms runs Program (6), and the default logger level keeps the
// loop's Info events quiet.
func TestScheduleOneTopology(t *testing.T) {
	path := writeTopo(t, fastTopo)
	out, _, err := runOut(t, "schedule", "-topologies", path,
		"-kmax", "4", "-duration", "2", "-interval-ms", "200")
	if err != nil {
		t.Errorf("schedule -kmax: %v", err)
	}
	if !strings.Contains(out, "min-latency") || !strings.Contains(out, " floor=4 granted=4\n") ||
		!strings.Contains(out, ", granted = 4\n") {
		t.Errorf("schedule -kmax 4 did not hold a fixed 4-slot grant in min-latency mode:\n%s", out)
	}
	_, quiet, err := runOut(t, "schedule", "-topologies", path,
		"-tmax-ms", "50", "-duration", "2", "-interval-ms", "200")
	if err != nil {
		t.Errorf("schedule -tmax-ms: %v", err)
	}
	if strings.Contains(quiet, "supervisor started") {
		t.Errorf("the default level logged an Info loop event:\n%s", quiet)
	}
	// An overloaded chain (13/s into 2.2/s and 2/s stages) on a fixed grant
	// stops one stopGrace past -duration and prints what it stranded, not
	// after draining its backlog at the service rate.
	t.Run("stops at -duration and counts what it strands", func(t *testing.T) {
		begun := time.Now()
		out, _, err := runOut(t, "schedule", "-topologies", writeTopo(t, validTopo), "-kmax", "4", "-duration", "1")
		if err != nil {
			t.Fatalf("schedule: %v\n%s", err, out)
		}
		if took, bound := time.Since(begun), time.Second+stopGrace+2*time.Second; took > bound {
			t.Errorf("schedule -duration 1 took %v, want at most %v", took, bound)
		}
		stranded := -1
		for _, line := range strings.Split(out, "\n") {
			fmt.Sscanf(line, "  stop: %d roots stranded at the deadline", &stranded)
		}
		if stranded <= 0 {
			t.Errorf("no positive per-tenant stranded count printed:\n%s", out)
		}
	})
	// The live loop's claim: an under-provisioned topology under a latency
	// target is scaled out — its grant grows past the registration grant —
	// and ends with a measured sojourn under the target. A measured E[T]
	// of 0 means no round has measured the allocation in force yet, never
	// that it converged.
	t.Run("scales out under load", func(t *testing.T) {
		if testing.Short() {
			t.Skip("seconds-long live run")
		}
		out, stderr, err := runOut(t, "schedule", "-topologies", writeTopo(t, busyTopo),
			"-tmax-ms", "80", "-duration", "8", "-interval-ms", "200", "-v")
		if err != nil {
			t.Fatalf("schedule: %v\n%s", err, out)
		}
		var granted0, granted int
		measured := -1.0
		for _, line := range strings.Split(out, "\n") {
			if _, rest, ok := strings.Cut(line, " granted="); ok {
				fmt.Sscanf(rest, "%d", &granted0)
			}
			var lambda0 float64
			fmt.Sscanf(strings.TrimSpace(line), "final: lambda0 = %f tuples/s, measured E[T] = %f ms, granted = %d",
				&lambda0, &measured, &granted)
		}
		if granted0 <= 0 || granted <= granted0 {
			t.Errorf("grant went %d -> %d, want it to grow under load", granted0, granted)
		}
		if measured <= 0 || measured > 80 {
			t.Errorf("final measured E[T] = %.1f ms, want measured and within Tmax 80 ms", measured)
		}
		if !strings.Contains(stderr, "supervisor started") {
			t.Errorf("-v did not log the Info-level loop events:\n%s", stderr)
		}
		if t.Failed() {
			t.Logf("output:\n%s", out)
		}
	})
}

// busyTopo offers 150 tuples/s to an extract stage one executor serves at
// 100/s: its tenant must grow past its two-slot registration grant.
const busyTopo = `{
  "operators": [
    {"name": "extract", "service_rate": 100, "external_rate": 150},
    {"name": "match", "service_rate": 80}
  ],
  "edges": [
    {"from": "extract", "to": "match", "selectivity": 1.0}
  ]
}`

// TestScheduleSubcommand runs `schedule` end to end: two live supervised
// topologies lease one pool through the cluster Scheduler, the overloaded
// tenant's supervisor measures its way to a larger grant, a machine is
// killed and recovered mid-run, and the books close with nothing leased
// beyond capacity. -weights, -priorities and -min-slots reach the
// scheduler's registrations.
func TestScheduleSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long live run")
	}
	dir := t.TempDir()
	idle, busy := filepath.Join(dir, "idle.json"), filepath.Join(dir, "busy.json")
	for path, content := range map[string]string{idle: fastTopo, busy: busyTopo} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := runOut(t, "schedule", "-topologies", idle+","+busy, "-tmax-ms", "200,100",
		"-weights", "1,2", "-priorities", "3,5", "-min-slots", "2,1",
		"-slots", "3", "-max-machines", "3", "-interval-ms", "200", "-duration", "5",
		"-fail-after", "2.5", "-fail-machines", "1", "-fail-down", "1")
	if err != nil {
		t.Fatalf("schedule returned %v\n%s", err, out)
	}
	for _, want := range []string{"idle-0           weight=1 priority=3 floor=2 ", "busy-1           weight=2 priority=5 floor=1 "} {
		if !strings.Contains(out, "  "+want) {
			t.Errorf("no registration line %q: the scheduler did not take -weights, -priorities and -min-slots", want)
		}
	}
	var killed, recovered bool
	granted := map[string]int{} // tenant -> final grant
	capacity, leased, tenant := -1, -1, ""
	for _, line := range strings.Split(out, "\n") {
		killed = killed || strings.Contains(line, "killed (capacity now")
		recovered = recovered || strings.Contains(line, "recovered (capacity now")
		if name, _, ok := strings.Cut(line, ": "); ok && strings.HasSuffix(line, "decision history:") {
			tenant = name
		}
		if _, rest, ok := strings.Cut(line, ", granted = "); ok {
			granted[tenant], _ = strconv.Atoi(rest)
		}
		var machines int
		fmt.Sscanf(line, "final: machines=%d capacity=%d leased=%d", &machines, &capacity, &leased)
	}
	if !killed || !recovered {
		t.Errorf("machine kill/recovery not reported (killed %v, recovered %v)", killed, recovered)
	}
	if granted["busy-1"] <= 2 {
		t.Errorf("overloaded tenant never grew past its 2-slot registration grant: %v", granted)
	}
	if capacity <= 0 || leased > capacity {
		t.Errorf("final books: leased %d of capacity %d", leased, capacity)
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}

func TestQuantileSubcommand(t *testing.T) {
	path := writeTopo(t, validTopo)
	if err := run([]string{"-topology", path, "quantile", "-q", "0.95", "-target-ms", "2500"}); err != nil {
		t.Errorf("quantile: %v", err)
	}
	if err := run([]string{"-topology", path, "quantile"}); err == nil {
		t.Error("missing target should error")
	}
	if err := run([]string{"-topology", path, "quantile", "-q", "2", "-target-ms", "100"}); err == nil {
		t.Error("bad quantile should error")
	}
}
