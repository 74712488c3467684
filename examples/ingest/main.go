// Network ingest demo, live: real clients push records over loopback TCP
// and HTTP into a supervised topology through the admission gate — the
// full front-door arc of DESIGN.md §8 on one machine.
//
// A two-stage pipeline (extract -> match, exponential 20 ms services)
// starts on one 2-slot machine behind the ingest Gate. Two TCP clients —
// "gold" (weight 4) and "bronze" (weight 1) — plus an HTTP client offer a
// light load the small grant handles comfortably. A third of the way in,
// bronze surges ×20, far past what even the 4-machine provider cap can
// serve under the 250 ms target: the gate starts shedding with explicit
// backpressure (TCP NACKs, HTTP 429s, retry-after hints), lowest-weight
// traffic first, while the offered-vs-admitted split keeps the *true*
// demand visible to the Supervisor — which scales the pool out to the
// cap. When the surge passes, the gate returns to admit-all, the pool
// scales back in, and the books close: every admitted record was fully
// processed (zero admitted-tuple loss), and everything shed was refused
// loudly, never silently dropped.
//
// Run:
//
//	go run ./examples/ingest
package main

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/node"
	"github.com/drs-repro/drs/internal/topology"
)

const (
	mu    = 50.0  // tuples/s one executor serves (20 ms mean service)
	tmax  = 0.250 // the latency target, seconds
	slots = 2     // slots per machine
	cap4  = 4     // provider cap in machines (8 slots)

	goldRate   = 20.0  // gold's offered rate throughout
	bronzeBase = 10.0  // bronze outside the surge
	bronzePeak = 200.0 // bronze inside the surge: needs ~10 slots of 8
	httpRate   = 5.0   // the HTTP client's background load

	phase1 = 8 * time.Second  // light load, small pool
	phase2 = 12 * time.Second // surge: shed + scale-out to the cap
	phase3 = 10 * time.Second // recovery: admit-all, scale-in
)

// pipeline is extract -> match, exponential 20 ms services.
var pipeline = topology.File{
	Operators: []topology.FileOperator{{Name: "extract", ServiceRate: mu}, {Name: "match", ServiceRate: mu}},
	Edges:     []topology.FileEdge{{From: "extract", To: "match", Selectivity: 1}},
}

// pacedTCPClient pushes records over one ingest TCP connection at a
// switchable rate, counting verdicts.
type pacedTCPClient struct {
	id             string
	rate           atomic.Uint64
	admitted, shed atomic.Int64
}

func (c *pacedTCPClient) run(addr string, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	conn, err := ingest.DialTCP(addr, c.id)
	if err != nil {
		log.Printf("%s: %v", c.id, err)
		return
	}
	defer conn.Close()
	rec := []byte("record-" + c.id)
	for {
		wait := time.Duration(float64(time.Second) / float64(c.rate.Load()))
		select {
		case <-stop:
			return
		case <-time.After(wait):
			ok, _, err := conn.Send(rec)
			if err != nil {
				return
			}
			if ok {
				c.admitted.Add(1)
			} else {
				c.shed.Add(1)
			}
		}
	}
}

func main() {
	// The whole stack in boot order: gate, NetworkSpout -> extract ->
	// match, a single tenant leased through the Scheduler (so a beyond-cap
	// scale-out is granted partially, up to the cap, instead of refused),
	// the control loop, then loopback listeners — the clients below are
	// real network clients.
	n, err := node.Start(node.Config{
		Build:           func(b *engine.TopologyBuilder) { node.AddOperators(b, pipeline, 8, 1) },
		Entry:           "extract",
		Tasks:           8,
		Tmax:            tmax,
		Interval:        500 * time.Millisecond,
		Cooldown:        1500 * time.Millisecond,
		SlotsPerMachine: slots,
		MaxMachines:     cap4,
		Costs: cluster.CostModel{
			Rebalance:        50 * time.Millisecond,
			MachineColdStart: 100 * time.Millisecond,
			MachineRelease:   50 * time.Millisecond,
		},
		Clients:  ingest.ListenerConfig{Weights: map[string]float64{"gold": 4, "bronze": 1, "web": 2}},
		TCPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Logger:   node.Logger(false),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	addrs := n.Status()
	tcpAddr, httpAddr := addrs.TCPAddr, addrs.HTTPAddr
	fmt.Printf("ingest: tcp://%s and http://%s/ingest; target E[T] <= %.0f ms, cap %d slots\n\n",
		tcpAddr, httpAddr, tmax*1e3, slots*cap4)

	// The clients.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	gold := &pacedTCPClient{id: "gold"}
	gold.rate.Store(uint64(goldRate))
	bronze := &pacedTCPClient{id: "bronze"}
	bronze.rate.Store(uint64(bronzeBase))
	wg.Add(2)
	go gold.run(tcpAddr, stop, &wg)
	go bronze.run(tcpAddr, stop, &wg)
	var http2xx, http429 atomic.Int64
	wg.Add(1)
	go func() { // a low-rate HTTP client rides along
		defer wg.Done()
		url := "http://" + httpAddr + "/ingest"
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(float64(time.Second) / httpRate)):
				req, _ := http.NewRequest("POST", url, strings.NewReader("web-record"))
				req.Header.Set(ingest.ClientIDHeader, "web")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					http429.Add(1)
				} else {
					http2xx.Add(1)
				}
			}
		}
	}()

	start := time.Now()
	report := func(until time.Duration) {
		for time.Since(start) < until {
			time.Sleep(2 * time.Second)
			st := n.Status()
			snapStr := "warming up"
			if st.Measured {
				// The supervisor's snapshot is demand-scaled: its λ0 IS the
				// offered rate; the admit fraction shows the shed side.
				snapStr = fmt.Sprintf("offered %5.1f/s E[T] %5.0f ms",
					st.Snapshot.OfferedLambda0, st.Snapshot.MeasuredSojourn*1e3)
			}
			fmt.Printf("  t=%4.1fs %s | admit %3.0f%% | grant %d slots, %d machines, alloc %v\n",
				time.Since(start).Seconds(), snapStr, st.Gate.AdmitFraction*100,
				st.Granted, st.Machines, st.Alloc)
		}
	}

	fmt.Printf("phase 1: gold %.0f/s + bronze %.0f/s + web %.0f/s — light load\n", goldRate, bronzeBase, httpRate)
	report(phase1)
	fmt.Printf("\nphase 2: bronze surges to %.0f/s — beyond the provider cap\n", bronzePeak)
	bronze.rate.Store(uint64(bronzePeak))
	report(phase1 + phase2)
	grantAtPeak := n.Status().Granted
	goldShedSurge, bronzeShedSurge := gold.shed.Load(), bronze.shed.Load()
	fmt.Printf("\nphase 3: bronze drops back to %.0f/s — un-shed and scale in\n", bronzeBase)
	bronze.rate.Store(uint64(bronzeBase))
	report(phase1 + phase2 + phase3)

	// Orderly shutdown: the clients, then the node's drain — listeners,
	// gate (ring), every admitted record finished, engine.
	close(stop)
	wg.Wait()
	rep := n.Drain()
	st, completions := rep.Gate, rep.Completions
	fmt.Printf("\nverdicts: offered %d, admitted %d, shed %d (overload %d, backlog %d); http %d×2xx / %d×429\n",
		st.Offered, st.Admitted, st.ShedOverload+st.ShedBacklog+st.ShedRateLimit,
		st.ShedOverload, st.ShedBacklog, http2xx.Load(), http429.Load())
	fmt.Printf("clients: gold shed %d, bronze shed %d (weight-ordered shedding)\n",
		goldShedSurge, bronzeShedSurge)
	fmt.Printf("engine: %d completions, mean E[T] %.0f ms; grant at peak %d slots\n",
		completions, rep.MeanSojourn.Seconds()*1e3, grantAtPeak)

	shedHappened := st.ShedOverload > 0
	scaledToCap := grantAtPeak == slots*cap4
	weightOrdered := bronzeShedSurge > 0 && goldShedSurge*5 < bronzeShedSurge
	admitAllRestored := st.AdmitFraction >= 0.99
	zeroLoss := completions == st.Admitted
	fmt.Printf("\nshed under overload: %v; scaled out to the cap: %v; weight-ordered: %v; admit-all restored: %v; zero admitted-tuple loss: %v\n",
		shedHappened, scaledToCap, weightOrdered, admitAllRestored, zeroLoss)
	if !shedHappened || !scaledToCap || !weightOrdered || !admitAllRestored || !zeroLoss {
		os.Exit(1)
	}
}
