// Command ingestload drives client traffic at a drsctl-serve ingest front
// end — HTTP POST or length-prefixed TCP — and reports the admitted/shed
// split the backpressure produced. It is the client half of the
// serve-smoke check (`make serve-smoke`).
//
// Usage:
//
//	ingestload -url http://127.0.0.1:8080/ingest -clients 4 -rate 100 -duration 5
//	ingestload -tcp 127.0.0.1:7070 -clients 2 -rate 50 -duration 5
//	ingestload -url http://127.0.0.1:8080/ingest -trace scenarios/chaos.json -speedup 60
//
// With -trace, ingestload replays a scenario spec (internal/scenario)
// against the live front door: one paced worker per tenant draws the same
// seeded, envelope-shaped arrival schedule the `drs-experiments chaos`
// simulation replays in virtual time — diurnal swings, flash crowds and
// correlated surges included — so every simulated scenario has a
// live-socket twin. -speedup compresses scenario seconds into wall
// seconds (60 replays a 24-minute arc in 24 s); client ids are the
// tenant names; an explicit -duration caps the replayed scenario horizon.
// Without -trace, the client ids are load-0, load-1, ...
//
// Exit status is 0 when every request got a verdict (2xx or 429/NACK) and
// non-zero on transport errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ingestload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ingestload", flag.ContinueOnError)
	url := fs.String("url", "", "HTTP ingest endpoint (e.g. http://127.0.0.1:8080/ingest)")
	tcp := fs.String("tcp", "", "TCP ingest address (length-prefixed protocol)")
	clients := fs.Int("clients", 4, "concurrent clients")
	rate := fs.Float64("rate", 100, "records/s per client")
	duration := fs.Float64("duration", 5, "seconds to push (with -trace: cap on the scenario horizon)")
	trace := fs.String("trace", "", "replay a scenario spec (JSON file) instead of flat per-client rates")
	speedup := fs.Float64("speedup", 1, "trace replay: scenario seconds per wall second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*url == "") == (*tcp == "") {
		return fmt.Errorf("pass exactly one of -url or -tcp")
	}
	if *trace != "" {
		if *speedup <= 0 {
			return fmt.Errorf("-speedup must be positive")
		}
		cap := 0.0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				cap = *duration
			}
		})
		return runTrace(*trace, *url, *tcp, *speedup, cap)
	}
	if *clients < 1 || *rate <= 0 || *duration <= 0 {
		return fmt.Errorf("-clients, -rate and -duration must be positive")
	}

	var admitted, shed, errs atomic.Int64
	deadline := time.Now().Add(time.Duration(*duration * float64(time.Second)))
	gap := time.Duration(float64(time.Second) / *rate)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		id := fmt.Sprintf("load-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			push, closer, err := pusher(*url, *tcp, id)
			if err != nil {
				errs.Add(1)
				return
			}
			defer closer()
			rec := []byte("record-" + id)
			for time.Now().Before(deadline) {
				ok, err := push(rec)
				switch {
				case err != nil:
					errs.Add(1)
				case ok:
					admitted.Add(1)
				default:
					shed.Add(1)
				}
				time.Sleep(gap)
			}
		}()
	}
	wg.Wait()
	total := admitted.Load() + shed.Load() + errs.Load()
	fmt.Printf("offered %d admitted %d shed %d errors %d\n",
		total, admitted.Load(), shed.Load(), errs.Load())
	if errs.Load() > 0 {
		return fmt.Errorf("%d transport errors", errs.Load())
	}
	return nil
}

// traceCounters is one tenant worker's verdict tally.
type traceCounters struct {
	admitted, shed, errs atomic.Int64
}

// runTrace replays a scenario spec live: one worker per tenant, each
// pacing the seeded arrival schedule (Poisson base shaped by the tenant's
// compiled envelope) compressed by the speedup factor. The schedule is the
// same pure function of (Spec, Seed) the simulation replays — only the
// transport differs.
func runTrace(path, url, tcp string, speedup, capSeconds float64) error {
	tl, spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	horizon := spec.DurationSeconds
	if capSeconds > 0 && capSeconds < horizon {
		horizon = capSeconds
	}
	counters := make([]traceCounters, len(spec.Tenants))
	start := time.Now()
	var wg sync.WaitGroup
	for i, ts := range spec.Tenants {
		arrivals, err := tl.Arrivals(ts.Name)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, name string, arr sim.ArrivalProcess) {
			defer wg.Done()
			c := &counters[i]
			push, closer, err := pusher(url, tcp, name)
			if err != nil {
				c.errs.Add(1)
				return
			}
			defer closer()
			rng := stats.NewRNG(spec.Seed + uint64(i))
			rec := []byte("record-" + name)
			now := 0.0 // scenario clock, seconds
			for {
				now += arr.NextInterArrival(rng)
				if now > horizon {
					return
				}
				at := start.Add(time.Duration(now / speedup * float64(time.Second)))
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				ok, err := push(rec)
				switch {
				case err != nil:
					c.errs.Add(1)
				case ok:
					c.admitted.Add(1)
				default:
					c.shed.Add(1)
				}
			}
		}(i, ts.Name, arrivals)
	}
	wg.Wait()
	var admitted, shed, errs int64
	for i, ts := range spec.Tenants {
		c := &counters[i]
		total := c.admitted.Load() + c.shed.Load() + c.errs.Load()
		fmt.Printf("tenant %s offered %d admitted %d shed %d errors %d\n",
			ts.Name, total, c.admitted.Load(), c.shed.Load(), c.errs.Load())
		admitted += c.admitted.Load()
		shed += c.shed.Load()
		errs += c.errs.Load()
	}
	fmt.Printf("offered %d admitted %d shed %d errors %d\n",
		admitted+shed+errs, admitted, shed, errs)
	if errs > 0 {
		return fmt.Errorf("%d transport errors", errs)
	}
	return nil
}

// pusher builds the record-push function for one client id over whichever
// transport is configured, plus its cleanup.
func pusher(url, tcp, id string) (func([]byte) (bool, error), func(), error) {
	if tcp != "" {
		conn, err := ingest.DialTCP(tcp, id)
		if err != nil {
			return nil, nil, err
		}
		return func(rec []byte) (bool, error) {
			ok, _, err := conn.Send(rec)
			return ok, err
		}, func() { conn.Close() }, nil
	}
	return pushHTTP(url, id), func() {}, nil
}

// pushHTTP returns a pusher POSTing records as one-record bodies; a 2xx
// is admitted, a 429 is shed, anything else is a transport error.
func pushHTTP(url, id string) func([]byte) (bool, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	return func(rec []byte) (bool, error) {
		req, err := http.NewRequest("POST", url, strings.NewReader(string(rec)))
		if err != nil {
			return false, err
		}
		req.Header.Set(ingest.ClientIDHeader, id)
		resp, err := client.Do(req)
		if err != nil {
			return false, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			return true, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			return false, nil
		default:
			return false, fmt.Errorf("unexpected status %d", resp.StatusCode)
		}
	}
}
