// Package sim is a deterministic simulation kernel in the style of PeerSim:
// an event-driven scheduler with a cycle (round) driver layered on top,
// per-node protocol instances, observer hooks, and a parallel replication
// runner. All randomness flows through splittable RNG streams so that a
// (seed, replication) pair fully determines a run.
package sim

import (
	"fmt"
	"sync/atomic"

	"github.com/glap-sim/glap/internal/par"
)

// Node is one simulated machine. Per-protocol state is held in a slice
// indexed by the protocol's registration order.
type Node struct {
	// ID is the node's dense index in [0, N).
	ID int

	up     bool
	states []any
}

// Up reports whether the node is switched on. Protocol rounds are only
// executed on nodes that are up.
func (n *Node) Up() bool { return n.up }

// Protocol is a distributed protocol simulated by the kernel. One instance
// serves all nodes; per-node state is created by Setup and retrieved with
// Engine.State.
type Protocol interface {
	// Name identifies the protocol; it must be unique within an Engine.
	Name() string
	// Setup builds the per-node protocol state for node n. It runs once per
	// node before the first round.
	Setup(e *Engine, n *Node) any
	// Round executes one protocol round on node n. The paper's push-pull
	// gossip exchanges are simulated by letting the active node read and
	// write the passive peer's state directly, exactly as PeerSim does.
	Round(e *Engine, n *Node, round int)
}

// ParallelRound is the opt-in contract for fork-join execution of a
// protocol's node pass. A protocol may declare it when, for every node n,
// Round(e, n, r) only WRITES state owned by n (its own protocol states, its
// own derived random stream, n-local scratch) while shared structures —
// other nodes' states, the cluster, the engine — are only READ, and no two
// nodes' rounds observe each other's writes within the same pass. Protocols
// that mutate peer state (push-pull gossip exchanges, Algorithm 3
// consolidation moving VMs) must not declare it and always run sequentially.
//
// Determinism is the caller's headline invariant: because each conforming
// Round is self-contained and draws from per-node randomness, the round's
// outcome is independent of execution order, so any worker count — including
// 1 — produces byte-identical simulations.
type ParallelRound interface {
	Protocol
	// Parallelizable reports whether Round currently satisfies the contract
	// above. Wrappers delegate to the wrapped protocol; a plain protocol
	// returns a constant true.
	Parallelizable() bool
}

// Observer is called at the end of every completed round, after all
// protocols ran on all nodes.
type Observer func(e *Engine, round int)

type protoReg struct {
	proto Protocol
	every int // run each `every` rounds
	from  int // first round in which the protocol runs
	until int // last round (inclusive); <0 means forever
}

// Engine drives one simulation run.
type Engine struct {
	rng       *RNG
	nodes     []*Node
	protocols []protoReg
	protoIdx  map[string]int
	queue     eventQueue
	now       int64
	observers []Observer
	pre       []Observer
	round     int
	stopReq   bool
	upCount   atomic.Int64

	// RoundPeriod is the virtual duration of one round. The paper uses
	// 2-minute rounds; the default is 120 (seconds).
	RoundPeriod int64

	// Workers bounds intra-run fork-join parallelism for protocols that
	// declare ParallelRound. <= 0 (the default) sizes automatically from the
	// machine-wide worker budget shared with RunReplications, so nested
	// parallelism cannot oversubscribe; 1 forces sequential execution; an
	// explicit count > 1 is honored exactly (differential and race tests
	// rely on that). Results are identical for every setting.
	Workers int
}

// NewEngine builds an engine with n nodes, all initially up, seeded by seed.
func NewEngine(n int, seed uint64) *Engine {
	e := &Engine{
		rng:         NewRNG(seed),
		protoIdx:    make(map[string]int),
		RoundPeriod: 120,
	}
	e.nodes = make([]*Node, n)
	for i := range e.nodes {
		e.nodes[i] = &Node{ID: i, up: true}
	}
	e.upCount.Store(int64(n))
	return e
}

// RNG returns the engine's root random stream. Components should derive
// sub-streams rather than share it.
func (e *Engine) RNG() *RNG { return e.rng }

// Now returns the current virtual time.
func (e *Engine) Now() int64 { return e.now }

// Round returns the index of the round currently executing (or the last
// completed round between rounds).
func (e *Engine) Round() int { return e.round }

// N returns the number of nodes.
func (e *Engine) N() int { return len(e.nodes) }

// Nodes returns the node slice. Callers must not reorder it.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Node returns the node with the given id.
func (e *Engine) Node(id int) *Node { return e.nodes[id] }

// UpCount returns the number of nodes currently up. The count is maintained
// incrementally by SetUp — observers call this every round, and the former
// O(n) scan was pure overhead on large clusters.
func (e *Engine) UpCount() int { return int(e.upCount.Load()) }

// SetUp switches node n on or off. Switched-off nodes do not execute
// protocol rounds and are skipped by peer samplers that filter dead peers.
func (e *Engine) SetUp(n *Node, up bool) {
	if n.up == up {
		return
	}
	n.up = up
	if up {
		e.upCount.Add(1)
	} else {
		e.upCount.Add(-1)
	}
}

// Register adds a protocol that runs every round, starting at round 0.
func (e *Engine) Register(p Protocol) {
	e.RegisterWindow(p, 1, 0, -1)
}

// RegisterEvery adds a protocol that runs once per `every` rounds.
func (e *Engine) RegisterEvery(p Protocol, every int) {
	e.RegisterWindow(p, every, 0, -1)
}

// RegisterWindow adds a protocol that runs every `every` rounds within the
// round window [from, until]; until < 0 means no upper bound. Registration
// order determines intra-round execution order.
func (e *Engine) RegisterWindow(p Protocol, every, from, until int) {
	if every < 1 {
		panic("sim: protocol period must be >= 1")
	}
	if _, dup := e.protoIdx[p.Name()]; dup {
		panic(fmt.Sprintf("sim: duplicate protocol %q", p.Name()))
	}
	e.protoIdx[p.Name()] = len(e.protocols)
	e.protocols = append(e.protocols, protoReg{proto: p, every: every, from: from, until: until})
}

// Observe adds an end-of-round observer.
func (e *Engine) Observe(o Observer) {
	e.observers = append(e.observers, o)
}

// BeforeRound adds a hook that fires at the start of every round, before any
// protocol runs. The cluster binding uses it to refresh VM demand so that
// protocols observe the round's workload.
func (e *Engine) BeforeRound(o Observer) {
	e.pre = append(e.pre, o)
}

// State returns node n's state for the named protocol. It panics on unknown
// protocol names: that is always a wiring bug, not a runtime condition.
func (e *Engine) State(name string, n *Node) any {
	i, ok := e.protoIdx[name]
	if !ok {
		panic(fmt.Sprintf("sim: unknown protocol %q", name))
	}
	return n.states[i]
}

// setup runs Setup for every protocol on every node, in registration order.
func (e *Engine) setup() {
	for _, n := range e.nodes {
		if n.states == nil {
			n.states = make([]any, len(e.protocols))
		}
	}
	for pi, reg := range e.protocols {
		for _, n := range e.nodes {
			if n.states[pi] == nil {
				n.states[pi] = reg.proto.Setup(e, n)
			}
		}
	}
}

// At schedules fn at virtual time t (>= now).
func (e *Engine) At(t int64, priority int, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{Time: t, Priority: priority, Fn: fn}
	e.queue.push(ev)
	return ev
}

// After schedules fn after d time units.
func (e *Engine) After(d int64, priority int, fn func()) *Event {
	return e.At(e.now+d, priority, fn)
}

// Cancel removes a scheduled event.
func (e *Engine) Cancel(ev *Event) { e.queue.remove(ev) }

// Stop requests that RunRounds return at the end of the current round.
func (e *Engine) Stop() { e.stopReq = true }

// RunRounds executes `rounds` synchronous protocol rounds. Within one round
// every registered protocol (in registration order) runs over all up nodes
// in a freshly shuffled order, then observers fire. Events scheduled via
// At/After with timestamps inside the round window fire before the round's
// protocol pass.
func (e *Engine) RunRounds(rounds int) {
	e.setup()
	order := make([]*Node, len(e.nodes))
	copy(order, e.nodes)
	shuffleRNG := e.rng.Derive(0x5aff1e)
	for r := 0; r < rounds; r++ {
		e.round = r
		roundStart := int64(r) * e.RoundPeriod
		e.drainUntil(roundStart)
		e.now = roundStart
		for _, o := range e.pre {
			o(e, r)
		}
		shuffleRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for pi := range e.protocols {
			reg := &e.protocols[pi]
			if r < reg.from || (reg.until >= 0 && r > reg.until) {
				continue
			}
			if (r-reg.from)%reg.every != 0 {
				continue
			}
			if pr, ok := reg.proto.(ParallelRound); ok && pr.Parallelizable() {
				e.runNodesParallel(reg.proto, order, r)
				continue
			}
			for _, n := range order {
				if n.up {
					reg.proto.Round(e, n, r)
				}
			}
		}
		for _, o := range e.observers {
			o(e, r)
		}
		if e.stopReq {
			e.stopReq = false
			return
		}
	}
	e.round = rounds
	e.now = int64(rounds) * e.RoundPeriod
	e.drainUntil(e.now)
}

// runNodesParallel fans one ParallelRound protocol's pass over the shuffled
// node order. The order slice is partitioned into index-contiguous chunks and
// joined before returning, so observers never see a half-finished pass. The
// ParallelRound contract (per-node writes only, per-node randomness) makes
// the result independent of chunking and worker count.
func (e *Engine) runNodesParallel(p Protocol, order []*Node, r int) {
	// ~32 chunks regardless of worker count: fine-grained enough to balance
	// heterogeneous per-node work, coarse enough that scheduling is noise.
	chunk := (len(order) + 31) / 32
	par.ForChunks(len(order), chunk, e.Workers, func(lo, hi int) {
		for _, n := range order[lo:hi] {
			if n.up {
				p.Round(e, n, r)
			}
		}
	})
}

// drainUntil fires all pending events with Time <= t in order.
func (e *Engine) drainUntil(t int64) {
	for {
		next, ok := e.queue.peekTime()
		if !ok || next > t {
			return
		}
		ev := e.queue.pop()
		e.now = ev.Time
		ev.Fn()
	}
}

// RunEvents runs the engine purely event-driven until the queue empties or
// virtual time passes horizon (horizon < 0 means no bound). It is used by
// components that need finer-than-round timing.
func (e *Engine) RunEvents(horizon int64) {
	e.setup()
	for {
		next, ok := e.queue.peekTime()
		if !ok || (horizon >= 0 && next > horizon) {
			return
		}
		ev := e.queue.pop()
		e.now = ev.Time
		ev.Fn()
	}
}
