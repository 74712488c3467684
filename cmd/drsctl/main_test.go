package main

import (
	"os"
	"path/filepath"
	"strconv"
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
