package engine

import (
	"errors"
	"fmt"
)

// Spout is a data source. Run must emit tuples until ctx is done (the emit
// callback is safe to call from the Run goroutine only) and then return.
type Spout interface {
	Run(ctx SpoutContext) error
}

// SpoutContext is passed to a running spout instance. Its methods must be
// called from the spout's Run goroutine only (each instance owns an
// unsynchronized emitter; see the Spout doc). A source whose batches need
// a completion callback or carry trace ids is a BatchSource drained by a
// NetworkSpout, which hands both to the same injection body.
type SpoutContext interface {
	// Emit injects one external tuple into the topology.
	Emit(v Values)
	// EmitBatch injects a batch of external tuples — each becomes its own
	// processing tree, but the whole batch shares one timestamp and one
	// enqueue per destination executor (source micro-batching; use it when
	// the source naturally yields tuples in chunks).
	EmitBatch(vs []Values)
	// Done is closed when the spout must stop.
	Done() <-chan struct{}
	// Instance is this spout instance's index (0-based).
	Instance() int
}

// Bolt processes tuples. One instance exists per task; the engine
// guarantees a task's Process calls are sequential, so instance state needs
// no locking. Emit routes downstream according to the topology's groupings
// and must only be called from within Process.
type Bolt interface {
	Process(t Tuple, emit Emit) error
}

// Emit sends a tuple payload downstream on the default stream. Call To for
// a named stream (Storm-style multi-stream bolts, e.g. the FPD detector's
// loop notifications vs. its reporter output).
type Emit func(v Values)

// To returns an emitter bound to the named stream. It is attached to the
// Emit closure by the runtime via emitRegistry; see Run.emitFrom.
func (e Emit) To(stream string) func(v Values) {
	return func(v Values) { e(append(Values{streamTag(stream)}, v...)) }
}

// streamTag marks a payload as destined for a named stream. It is stripped
// before delivery, so bolts never observe it.
type streamTag string

// BoltFunc adapts a function to the Bolt interface for stateless bolts.
type BoltFunc func(t Tuple, emit Emit) error

// Process calls the function.
func (f BoltFunc) Process(t Tuple, emit Emit) error { return f(t, emit) }

// BoltFactory creates the per-task bolt instance. task is the task index
// within the bolt (0-based), so stateful bolts know their partition.
type BoltFactory func(task int) Bolt

// GroupingKind selects how an edge routes tuples to the target's tasks.
type GroupingKind int

const (
	// GroupShuffle spreads tuples over tasks round-robin — Storm's shuffle
	// grouping, the load-balanced default.
	GroupShuffle GroupingKind = iota + 1
	// GroupFields routes by hash of a key, so equal keys always reach the
	// same task (stateful partitioning).
	GroupFields
)

// KeyFunc extracts the partitioning key for fields grouping.
type KeyFunc func(v Values) uint64

// edgeSpec is one declared connection.
type edgeSpec struct {
	fromSpout bool
	from      int // spout or bolt index
	to        int // bolt index
	kind      GroupingKind
	key       KeyFunc
	stream    string // "" is the default stream
}

// spoutSpec declares a source.
type spoutSpec struct {
	name      string
	factory   func(instance int) Spout
	instances int
}

// boltSpec declares an operator.
type boltSpec struct {
	name    string
	factory BoltFactory
	tasks   int
}

// TopologyBuilder accumulates a topology declaration.
type TopologyBuilder struct {
	spouts []spoutSpec
	bolts  []boltSpec
	edges  []edgeSpec
	index  map[string]nodeRef
	errs   []error
}

type nodeRef struct {
	spout bool
	idx   int
}

// NewTopology returns an empty builder.
func NewTopology() *TopologyBuilder {
	return &TopologyBuilder{index: make(map[string]nodeRef)}
}

// Spout declares a source with the given number of instances.
func (b *TopologyBuilder) Spout(name string, instances int, factory func(instance int) Spout) *TopologyBuilder {
	if err := b.checkName(name); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	if instances < 1 {
		b.errs = append(b.errs, fmt.Errorf("engine: spout %q: instances %d < 1", name, instances))
		return b
	}
	if factory == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: spout %q: nil factory", name))
		return b
	}
	b.index[name] = nodeRef{spout: true, idx: len(b.spouts)}
	b.spouts = append(b.spouts, spoutSpec{name: name, factory: factory, instances: instances})
	return b
}

// Bolt declares an operator with the given fixed task count. Tasks bound
// the maximum executor parallelism (Storm's design: tasks are fixed while
// the topology runs; executors are re-assigned task subsets on rebalance).
func (b *TopologyBuilder) Bolt(name string, tasks int, factory BoltFactory) *TopologyBuilder {
	if err := b.checkName(name); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	if tasks < 1 {
		b.errs = append(b.errs, fmt.Errorf("engine: bolt %q: tasks %d < 1", name, tasks))
		return b
	}
	if factory == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: bolt %q: nil factory", name))
		return b
	}
	b.index[name] = nodeRef{idx: len(b.bolts)}
	b.bolts = append(b.bolts, boltSpec{name: name, factory: factory, tasks: tasks})
	return b
}

func (b *TopologyBuilder) checkName(name string) error {
	if name == "" {
		return errors.New("engine: empty component name")
	}
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("engine: duplicate component %q", name)
	}
	return nil
}

// Shuffle connects from -> to with shuffle grouping on the default stream.
func (b *TopologyBuilder) Shuffle(from, to string) *TopologyBuilder {
	return b.connect(from, to, "", GroupShuffle, nil)
}

// ShuffleOn is Shuffle for a named output stream of from.
func (b *TopologyBuilder) ShuffleOn(stream, from, to string) *TopologyBuilder {
	return b.connect(from, to, stream, GroupShuffle, nil)
}

// Fields connects from -> to routing by key on the default stream.
func (b *TopologyBuilder) Fields(from, to string, key KeyFunc) *TopologyBuilder {
	if key == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: fields edge %s->%s: nil key func", from, to))
		return b
	}
	return b.connect(from, to, "", GroupFields, key)
}

func (b *TopologyBuilder) connect(from, to, stream string, kind GroupingKind, key KeyFunc) *TopologyBuilder {
	src, ok := b.index[from]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("engine: edge %s->%s: unknown source", from, to))
		return b
	}
	dst, ok := b.index[to]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("engine: edge %s->%s: unknown target", from, to))
		return b
	}
	if dst.spout {
		b.errs = append(b.errs, fmt.Errorf("engine: edge %s->%s: spouts cannot receive", from, to))
		return b
	}
	if src.spout && stream != "" {
		b.errs = append(b.errs, fmt.Errorf("engine: edge %s->%s: spouts emit on the default stream only", from, to))
		return b
	}
	b.edges = append(b.edges, edgeSpec{
		fromSpout: src.spout, from: src.idx, to: dst.idx, kind: kind, key: key, stream: stream,
	})
	return b
}

// Topology is a validated, immutable declaration ready to start.
type Topology struct {
	spouts []spoutSpec
	bolts  []boltSpec
	edges  []edgeSpec
}

// Build validates the declaration.
func (b *TopologyBuilder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(b.spouts) == 0 {
		return nil, errors.New("engine: topology needs at least one spout")
	}
	if len(b.bolts) == 0 {
		return nil, errors.New("engine: topology needs at least one bolt")
	}
	reachable := make([]bool, len(b.bolts))
	for _, e := range b.edges {
		if e.fromSpout {
			reachable[e.to] = true
		}
	}
	// Propagate reachability through bolt->bolt edges to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, e := range b.edges {
			if !e.fromSpout && reachable[e.from] && !reachable[e.to] {
				reachable[e.to] = true
				changed = true
			}
		}
	}
	for i, r := range reachable {
		if !r {
			return nil, fmt.Errorf("engine: bolt %q receives no input", b.bolts[i].name)
		}
	}
	return &Topology{
		spouts: append([]spoutSpec(nil), b.spouts...),
		bolts:  append([]boltSpec(nil), b.bolts...),
		edges:  append([]edgeSpec(nil), b.edges...),
	}, nil
}

// BoltNames returns the bolt names in declaration order — the operator
// order used in measurer reports and allocations.
func (t *Topology) BoltNames() []string {
	names := make([]string, len(t.bolts))
	for i, b := range t.bolts {
		names[i] = b.name
	}
	return names
}
