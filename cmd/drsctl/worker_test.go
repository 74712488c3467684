package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeFamily fetches a Prometheus exposition and returns the value of
// the first sample of one family (and whether the family appeared).
func scrapeFamily(t *testing.T, url, family string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		// Exact family match: the next rune is a space or a label brace.
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("family %s has unparseable sample %q", family, line)
		}
		return v, true
	}
	return 0, false
}

// TestWorkerMetricsEndpoint boots a serve daemon with a worker tier plus
// one real worker daemon exposing -metrics and -pprof, pushes traffic
// until the worker has processed shuttled batches, and asserts over two
// real scrapes that the worker families are present and monotonic, and
// that the profiles answer beside them.
func TestWorkerMetricsEndpoint(t *testing.T) {
	path := writeTopo(t, fastTopo)
	httpAddr := freeAddr(t)
	workerListen := freeAddr(t)
	metricsAddr := freeAddr(t)

	serveSig := make(chan os.Signal, 1)
	origServe := serveInterrupts
	serveInterrupts = func() <-chan os.Signal { return serveSig }
	defer func() { serveInterrupts = origServe }()
	workerSig := make(chan os.Signal, 1)
	origWorker := workerInterrupts
	workerInterrupts = func() <-chan os.Signal { return workerSig }
	defer func() { workerInterrupts = origWorker }()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-topology", path, "serve",
			"-tmax-ms", "200", "-duration", "300", "-interval-ms", "100",
			"-http", httpAddr, "-worker-listen", workerListen, "-min-workers", "1"})
	}()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- run([]string{"-topology", path, "worker",
			"-connect", workerListen, "-metrics", metricsAddr, "-pprof", "-retry-for", "30"})
	}()

	metricsURL := "http://" + metricsAddr + "/metrics"
	ingestURL := "http://" + httpAddr + "/ingest"
	deadline := time.Now().Add(30 * time.Second)

	// First scrape: wait for the worker's endpoint, then for the gauge
	// families every worker exports from boot.
	var machine float64
	for {
		v, ok := scrapeFamilyQuiet(metricsURL, "drs_worker_machine")
		if ok {
			machine = v
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker /metrics endpoint never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if machine < 1 {
		t.Fatalf("drs_worker_machine = %v, want a leased machine id >= 1", machine)
	}
	if got := pprofStatus(t, metricsAddr); got != http.StatusOK {
		t.Errorf("worker GET /debug/pprof/ under -pprof = %d, want 200", got)
	}

	// Push traffic until the worker has hosted executors and processed
	// shuttled batches: the placement loop needs an interval or two.
	post := func(i int) {
		resp, err := http.Post(ingestURL, "application/octet-stream",
			strings.NewReader(fmt.Sprintf("rec-%d", i)))
		if err == nil {
			resp.Body.Close()
		}
	}
	var batches1, tuples1 float64
	for i := 0; ; i++ {
		post(i)
		b, okB := scrapeFamilyQuiet(metricsURL, "drs_worker_batches_total")
		u, okU := scrapeFamilyQuiet(metricsURL, "drs_worker_tuples_total")
		if okB && okU && b > 0 && u > 0 {
			batches1, tuples1 = b, u
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never processed a shuttled batch (batches=%v ok=%v tuples=%v ok=%v)", b, okB, u, okU)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if hosted, ok := scrapeFamily(t, metricsURL, "drs_worker_hosted_bolts"); !ok || hosted < 1 {
		t.Fatalf("drs_worker_hosted_bolts = %v (present=%v), want >= 1 once batches flowed", hosted, ok)
	}

	// Second scrape after more traffic: the counters are cumulative, so
	// they must not move backwards, and more records must advance tuples.
	for i := 0; ; i++ {
		post(1000 + i)
		u, ok := scrapeFamilyQuiet(metricsURL, "drs_worker_tuples_total")
		if ok && u > tuples1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drs_worker_tuples_total never advanced past the first scrape")
		}
		time.Sleep(50 * time.Millisecond)
	}
	batches2, ok := scrapeFamily(t, metricsURL, "drs_worker_batches_total")
	if !ok {
		t.Fatal("drs_worker_batches_total missing on the second scrape")
	}
	tuples2, ok := scrapeFamily(t, metricsURL, "drs_worker_tuples_total")
	if !ok {
		t.Fatal("drs_worker_tuples_total missing on the second scrape")
	}
	if batches2 < batches1 || tuples2 < tuples1 {
		t.Fatalf("counters moved backwards: batches %v -> %v, tuples %v -> %v",
			batches1, batches2, tuples1, tuples2)
	}

	// Orderly shutdown both daemons.
	workerSig <- os.Interrupt
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker after signal returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after the signal")
	}
	serveSig <- os.Interrupt
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve after signal returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain and exit after the signal")
	}
}

// scrapeFamilyQuiet is scrapeFamily without the test failures, for use in
// wait loops where the endpoint may not be up yet.
func scrapeFamilyQuiet(url, family string) (float64, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
