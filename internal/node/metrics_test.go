package node

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/obs"
)

var labelPair = regexp.MustCompile(`(\w+)="[^"]*"`)

// metricsContract reduces a text exposition to what a dashboard or alert
// rule depends on — per family its name, type, label keys (le aside) and
// help string, sorted — plus how many series each family carries.
func metricsContract(exposition string) (lines []string, series map[string]int) {
	help, typ := map[string]string{}, map[string]string{}
	keys, sets := map[string]map[string]bool{}, map[string]map[string]bool{}
	family := ""
	for _, line := range strings.Split(exposition, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, text, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = text
		case strings.HasPrefix(line, "# TYPE "):
			var kind string
			family, kind, _ = strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			typ[family], keys[family], sets[family] = kind, map[string]bool{}, map[string]bool{}
		case line != "":
			labels := ""
			if i := strings.IndexByte(line, '{'); i >= 0 {
				labels = line[i+1 : strings.IndexByte(line, '}')]
			}
			var own []string
			for _, m := range labelPair.FindAllStringSubmatch(labels, -1) {
				if m[1] != "le" {
					keys[family][m[1]] = true
					own = append(own, m[0])
				}
			}
			sets[family][strings.Join(own, ",")] = true
		}
	}
	series = map[string]int{}
	for f := range typ {
		var ks []string
		for k := range keys[f] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		lines = append(lines, fmt.Sprintf("%s %s [%s] %s", f, typ[f], strings.Join(ks, ","), help[f]))
		series[f] = len(sets[f])
	}
	sort.Strings(lines)
	return lines, series
}

// TestMetricsContract holds /metrics to testdata/metrics_contract.golden
// in the node's four shapes. The golden was generated from `drsctl serve`
// at the commit before metrics.go moved into this package (same four flag
// sets, same two-bolt topology), so passing here shows the move preserved
// every family name, type, label key and help string. A family's series
// count is bounded too: labels here are bolts, tenants and shed reasons,
// never client ids.
func TestMetricsContract(t *testing.T) {
	shapes := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"wal", func(c *Config) { c.WALDir = t.TempDir() }},
		{"workers", func(c *Config) { c.WorkerListener = listen(t) }},
		{"obs", func(c *Config) {
			c.DecisionSink, c.TraceSink = obs.NewWriterSink(io.Discard), obs.NewWriterSink(io.Discard)
			c.TraceSample = 10
		}},
	}
	var got strings.Builder
	for _, sh := range shapes {
		cfg, _ := testConfig()
		sh.set(&cfg)
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exposition := string(n.metrics.reg.Write(nil))
		lines, series := metricsContract(exposition)
		n.Close()
		// An idle node's ring: nothing queued, the floor allocated, the
		// default bound.
		for _, s := range []string{`drs_ingest_ring_slots{kind="queued"} 0`,
			`drs_ingest_ring_slots{kind="allocated"} 1024`, `drs_ingest_ring_slots{kind="bound"} 4096`} {
			if !strings.Contains(exposition, s+"\n") {
				t.Errorf("%s: no %q sample", sh.name, s)
			}
		}
		fmt.Fprintf(&got, "== %s\n%s\n", sh.name, strings.Join(lines, "\n"))
		const bound = 4 // the widest family: three shed reasons
		for family, count := range series {
			if count > bound {
				t.Errorf("%s: %s carries %d series, bound %d", sh.name, family, count, bound)
			}
		}
	}
	want, err := os.ReadFile("testdata/metrics_contract.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("metrics contract changed:\n--- got\n%s\n--- want\n%s", got.String(), want)
	}
}
