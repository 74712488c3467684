package node

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/topology"
)

// poissonSpout emits tuples with exponential inter-arrival times at rate
// tuples/s.
type poissonSpout struct {
	rate float64
	seed int64
}

func (s *poissonSpout) Run(ctx engine.SpoutContext) error {
	rng := rand.New(rand.NewSource(s.seed))
	for {
		wait := time.Duration(rng.ExpFloat64() / s.rate * float64(time.Second))
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
// rate, feeding that operator at that rate.
func AddSources(b *engine.TopologyBuilder, tf topology.File, seed int64) {
	for i, op := range tf.Operators {
		if op.ExternalRate <= 0 {
			continue
		}
		spout := &poissonSpout{rate: op.ExternalRate, seed: seed + int64(i)*7919}
		b.Spout("src-"+op.Name, 1, func(int) engine.Spout { return spout })
		b.Shuffle("src-"+op.Name, op.Name)
	}
}
