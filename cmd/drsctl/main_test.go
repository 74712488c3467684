package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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
	for _, bad := range []string{"", "1,2", "a,b,c", "1,2,3,4"} {
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

func TestRunErrors(t *testing.T) {
	path := writeTopo(t, validTopo)
	cases := [][]string{
		{},                               // no topology
		{"-topology", path},              // no subcommand
		{"-topology", path, "bogus"},     // unknown subcommand
		{"-topology", path, "recommend"}, // neither kmax nor tmax
		{"-topology", path, "model"},     // missing alloc
		{"-topology", path, "recommend", "-kmax", "22", "-tmax-ms", "1"}, // both
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
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

func TestSuperviseSubcommand(t *testing.T) {
	path := writeTopo(t, fastTopo)
	if err := run([]string{"-topology", path, "supervise",
		"-kmax", "4", "-duration", "2", "-interval-ms", "200"}); err != nil {
		t.Errorf("supervise -kmax: %v", err)
	}
	if err := run([]string{"-topology", path, "supervise",
		"-tmax-ms", "50", "-duration", "2", "-interval-ms", "200"}); err != nil {
		t.Errorf("supervise -tmax-ms: %v", err)
	}
	for _, bad := range [][]string{
		{"-topology", path, "supervise"},                                 // no mode
		{"-topology", path, "supervise", "-kmax", "4", "-tmax-ms", "50"}, // both modes
		{"-topology", path, "supervise", "-kmax", "1", "-duration", "1"}, // budget below initial alloc
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) should error", bad)
		}
	}
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
// beyond capacity — the live two-tenant arc examples/multitenant and
// examples/churn used to check by hand.
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
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"schedule", "-topologies", idle + "," + busy, "-tmax-ms", "200,100",
			"-slots", "3", "-max-machines", "3", "-interval-ms", "200", "-duration", "5",
			"-fail-after", "2.5", "-fail-machines", "1", "-fail-down", "1"})
		w.Close()
	}()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errC; err != nil {
		t.Fatalf("schedule returned %v\n%s", err, out)
	}
	var killed, recovered bool
	granted := map[string]int{} // tenant -> final grant
	capacity, leased, tenant := -1, -1, ""
	for _, line := range strings.Split(string(out), "\n") {
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
