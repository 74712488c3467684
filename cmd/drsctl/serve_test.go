package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
)

// freeAddr reserves a localhost port and releases it for the serve
// listener to claim (a small race, fine for a test).
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// awaitNotice routes os.Stderr — where serve logs its lifecycle notices —
// through a pipe for the rest of the test, copying every line on to the
// real stderr, and returns a channel closed once a line containing msg has
// passed. A test waits on it for a listener instead of retrying a dial.
func awaitNotice(t *testing.T, msg string) <-chan struct{} {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	seen, copied := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(r)
		for announced := false; sc.Scan(); {
			fmt.Fprintln(stderr, sc.Text())
			if !announced && strings.Contains(sc.Text(), msg) {
				announced = true
				close(seen)
			}
		}
	}()
	t.Cleanup(func() {
		os.Stderr = stderr
		w.Close()
		<-copied
		r.Close()
	})
	return seen
}

// pprofStatus is the status GET /debug/pprof/ answers on addr.
func pprofStatus(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// awaitListener blocks until serve announces its HTTP listener, failing
// the test if serve exits first or the notice takes over 15 s.
func awaitListener(t *testing.T, listening <-chan struct{}, errC <-chan error) {
	t.Helper()
	select {
	case <-listening:
	case err := <-errC:
		t.Fatalf("serve exited before its listener came up: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("listener never came up")
	}
}

// TestServeSignalDrain: a SIGINT mid-serve closes the listeners, drains
// the ingest ring, syncs the durable watermark and returns nil — long
// before the -duration would have elapsed on its own. -pprof serves the
// profiles beside the ingest handler.
func TestServeSignalDrain(t *testing.T) {
	path := writeTopo(t, fastTopo)
	walDir := t.TempDir()
	addr := freeAddr(t)

	sigC := make(chan os.Signal, 1)
	orig := serveInterrupts
	serveInterrupts = func() <-chan os.Signal { return sigC }
	defer func() { serveInterrupts = orig }()

	listening := awaitNotice(t, "http ingest open")
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-topology", path, "serve",
			"-tmax-ms", "200", "-duration", "300", "-interval-ms", "100",
			"-http", addr, "-wal-dir", walDir, "-pprof"})
	}()

	// Wait for the listener, then land a few records.
	awaitListener(t, listening, errC)
	if got := pprofStatus(t, addr); got != http.StatusOK {
		t.Errorf("GET /debug/pprof/ under -pprof = %d, want 200", got)
	}
	url := "http://" + addr + "/ingest"
	posted := 0
	deadline := time.Now().Add(15 * time.Second)
	for posted < 5 {
		resp, err := http.Post(url, "application/octet-stream",
			strings.NewReader(fmt.Sprintf("rec-%d", posted)))
		if err != nil {
			t.Fatalf("post to the announced listener: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			posted++
		} else if time.Now().After(deadline) {
			t.Fatalf("ingest kept refusing records (last status %d)", resp.StatusCode)
		}
	}

	sigC <- os.Interrupt
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("serve after signal returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain and exit after the signal")
	}

	// The drain finished the admitted records and synced the watermark: a
	// fresh recovery replays nothing, and the checkpoint was written.
	l, rec, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Unacked != 0 {
		t.Errorf("unacked after drained shutdown = %d records, want 0", rec.Unacked)
	}
	if rec.Watermark < uint64(posted) {
		t.Errorf("recovered watermark %d, want >= %d", rec.Watermark, posted)
	}
	if _, ok, err := wal.LoadCheckpoint(walDir); err != nil || !ok {
		t.Fatalf("checkpoint after shutdown: ok=%v err=%v", ok, err)
	}
}

// TestServeRejectsSamplingOutOfRange: the trace sampling knob takes
// permille in [1,1000]. Zero in particular must be refused up front — obs
// reads a non-positive rate as "default" (trace everything), the opposite
// of what the flag would appear to say.
func TestServeRejectsSamplingOutOfRange(t *testing.T) {
	path := writeTopo(t, fastTopo)
	for _, v := range []string{"0", "-1", "1001"} {
		err := run([]string{"-topology", path, "serve", "-tmax-ms", "200", "-trace-sample", v})
		if err == nil || !strings.Contains(err.Error(), "-trace-sample wants permille in [1,1000]") {
			t.Errorf("serve -trace-sample %s = %v, want a [1,1000] range error", v, err)
		}
	}
}

// slowTopo serves 20 ms per tuple per stage on one executor each: a burst
// sits in the executor queues for the better part of a second.
const slowTopo = `{
  "operators": [
    {"name": "extract", "service_rate": 50, "external_rate": 10},
    {"name": "match", "service_rate": 50}
  ],
  "edges": [
    {"from": "extract", "to": "match", "selectivity": 1.0}
  ]
}`

// TestServeReportAfterQuiesce: the final report is read after the engine
// has finished everything admitted, not beside it. A burst into slow
// bolts followed by an immediate signal must still print
// `engine: N completions` with N equal to the printed `admitted` — the
// inequality worker_smoke.sh asserts on real processes. A record offered
// on the -tcp listener counts in the same books; the -decision-log and
// -trace directories hold records and spans their parsers accept; and
// without -pprof there are no profiles.
func TestServeReportAfterQuiesce(t *testing.T) {
	path := writeTopo(t, slowTopo)
	addr, tcpAddr := freeAddr(t), freeAddr(t)
	decisionDir, traceDir := t.TempDir(), t.TempDir()

	sigC := make(chan os.Signal, 1)
	orig := serveInterrupts
	serveInterrupts = func() <-chan os.Signal { return sigC }
	defer func() { serveInterrupts = orig }()

	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	listening := awaitNotice(t, "tcp ingest open")
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-topology", path, "serve",
			"-tmax-ms", "5000", "-duration", "300", "-interval-ms", "100", "-http", addr,
			"-tcp", tcpAddr, "-decision-log", decisionDir, "-trace", traceDir, "-trace-sample", "1000"})
		w.Close()
	}()

	// One NDJSON burst and one TCP record, as soon as the listeners are up.
	awaitListener(t, listening, errC)
	burst := strings.Repeat("rec\n", 30)
	resp, err := http.Post("http://"+addr+"/ingest", "application/x-ndjson", strings.NewReader(burst))
	if err != nil {
		t.Fatalf("post to the announced listener: %v", err)
	}
	var verdict struct{ Admitted int64 }
	err = json.NewDecoder(resp.Body).Decode(&verdict)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("burst reply: %v", err)
	}
	conn, err := ingest.DialTCP(tcpAddr, "tcp-client")
	if err != nil {
		t.Fatalf("dial the announced TCP listener: %v", err)
	}
	ok, _, err := conn.Send([]byte("rec"))
	conn.Close()
	if err != nil || !ok {
		t.Fatalf("TCP record: admitted %v, %v", ok, err)
	}
	if got := pprofStatus(t, addr); got == http.StatusOK {
		t.Error("GET /debug/pprof/ without -pprof = 200")
	}
	sigC <- os.Interrupt

	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errC; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	admitted, completions := int64(-1), int64(-1)
	for _, line := range strings.Split(string(out), "\n") {
		var skip int64
		fmt.Sscanf(line, "ingest: offered %d, admitted %d", &skip, &admitted)
		fmt.Sscanf(line, "engine: %d completions", &completions)
	}
	if admitted <= 0 || completions != admitted {
		t.Errorf("report printed admitted %d but engine: %d completions\n%s", admitted, completions, out)
	}
	if admitted != verdict.Admitted+1 {
		t.Errorf("report printed admitted %d, want the burst's %d plus the TCP record", admitted, verdict.Admitted)
	}
	if n := countParsed(t, decisionDir, func(l []byte) error { _, err := obs.ParseRecord(l); return err }); n == 0 {
		t.Error("-decision-log wrote no decision record")
	}
	if n := countParsed(t, traceDir, func(l []byte) error { _, err := obs.ParseSpan(l); return err }); n == 0 {
		t.Error("-trace wrote no span")
	}
}

// countParsed counts the NDJSON lines in dir's files that parse accepts,
// failing the test on one it refuses.
func countParsed(t *testing.T, dir string, parse func([]byte) error) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if err := parse(line); err != nil {
				t.Errorf("%s: %v", f, err)
			}
			n++
		}
	}
	return n
}
