package node

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/topology"
)

// Rate is a Poisson source's arrival rate in tuples/s, switchable while
// the spout runs — the load step of the live demos.
type Rate struct{ bits atomic.Uint64 }

// Set changes the rate; the spout picks it up at its next arrival.
func (r *Rate) Set(perSec float64) { r.bits.Store(math.Float64bits(perSec)) }

func (r *Rate) load() float64 { return math.Float64frombits(r.bits.Load()) }

// poissonSpout emits tuples with exponential inter-arrival times at a
// switchable rate.
type poissonSpout struct {
	rate *Rate
	seed int64
}

func (s *poissonSpout) Run(ctx engine.SpoutContext) error {
	rng := rand.New(rand.NewSource(s.seed))
	for {
		wait := time.Duration(rng.ExpFloat64() / s.rate.load() * float64(time.Second))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(wait):
			ctx.Emit(engine.Values{0})
		}
	}
}

// OperatorFactories builds the per-operator bolt factories every live
// caller shares: each bolt busies an exponential service time per tuple
// and forwards on a named stream per edge so each edge applies its own
// selectivity independently. The factories are pure functions of (file,
// seed), which is the whole point — `drsctl worker` calls this with the
// seed from the coordinator's welcome and hosts instances bit-identical
// to the ones the serve process would have built in-process.
func OperatorFactories(tf topology.File, seed int64) map[string]engine.BoltFactory {
	type outEdge struct {
		stream      string
		selectivity float64
	}
	outs := make(map[string][]outEdge)
	for i, e := range tf.Edges {
		outs[e.From] = append(outs[e.From], outEdge{stream: fmt.Sprintf("e%d", i), selectivity: e.Selectivity})
	}
	factories := make(map[string]engine.BoltFactory, len(tf.Operators))
	for i, op := range tf.Operators {
		op := op
		edges := outs[op.Name]
		taskSeed := seed + int64(i)*1009
		factories[op.Name] = func(task int) engine.Bolt {
			rng := rand.New(rand.NewSource(taskSeed + int64(task)))
			return engine.BoltFunc(func(_ engine.Tuple, emit engine.Emit) error {
				time.Sleep(time.Duration(rng.ExpFloat64() / op.ServiceRate * float64(time.Second)))
				for _, e := range edges {
					n := int(math.Floor(e.selectivity))
					if rng.Float64() < e.selectivity-math.Floor(e.selectivity) {
						n++
					}
					to := emit.To(e.stream)
					for j := 0; j < n; j++ {
						to(engine.Values{0})
					}
				}
				return nil
			})
		}
	}
	return factories
}

// AddOperators declares the topology file's operators as live bolts (via
// OperatorFactories) in file order, plus the inter-operator edges.
func AddOperators(b *engine.TopologyBuilder, tf topology.File, tasks int, seed int64) {
	factories := OperatorFactories(tf, seed)
	for _, op := range tf.Operators {
		b.Bolt(op.Name, tasks, factories[op.Name])
	}
	for i, e := range tf.Edges {
		b.ShuffleOn(fmt.Sprintf("e%d", i), e.From, e.To)
	}
}

// AddSources declares one Poisson spout per operator with an external
// rate, feeding that operator, and returns the rates by operator name so
// a demo can step the load mid-run.
func AddSources(b *engine.TopologyBuilder, tf topology.File, seed int64) map[string]*Rate {
	rates := make(map[string]*Rate)
	for i, op := range tf.Operators {
		if op.ExternalRate <= 0 {
			continue
		}
		rate := &Rate{}
		rate.Set(op.ExternalRate)
		rates[op.Name] = rate
		spout := &poissonSpout{rate: rate, seed: seed + int64(i)*7919}
		b.Spout("src-"+op.Name, 1, func(int) engine.Spout { return spout })
		b.Shuffle("src-"+op.Name, op.Name)
	}
	return rates
}
