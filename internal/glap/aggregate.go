package glap

import (
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/sim"
)

// AggProtocolName registers the aggregation phase of the Gossip Learning
// component.
const AggProtocolName = "glap-aggregate"

// AggProtocol is Algorithm 2: a push-pull gossip in which every PM exchanges
// its φ^io (both Q-tables) with one random neighbour per round and the two
// endpoints merge — averaging cells present on both sides and adopting cells
// present on one — so that all PMs converge to identical Q-values.
//
// The protocol operates on the Q store owned by LearnProtocol, which must be
// registered on the same engine.
type AggProtocol struct {
	// Select overrides the peer selector (defaults to Cyclon sampling).
	Select gossip.PeerSelector

	rng sim.BoundRNG
}

// Name implements sim.Protocol.
func (a *AggProtocol) Name() string { return AggProtocolName }

// Setup implements sim.Protocol. The aggregation phase has no state of its
// own; it mutates the learning component's tables.
func (a *AggProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	return struct{}{}
}

// Round implements one active-thread exchange of Algorithm 2.
func (a *AggProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	st := TablesOf(e, n)
	// Training is over for this node once aggregation runs; its scratch
	// buffers (a few KB each) are dead weight exactly when the merge unions
	// drive the run's peak heap, so drop them here. They are append-grown
	// caches, rebuilt lazily if a continuous-mode re-learning phase follows.
	st.scratch = learnScratch{}
	sel := a.Select
	if sel == nil {
		sel = gossip.CyclonSelector
	}
	peer := sel(e, n, a.rng.For(e, 0xa66a66))
	if peer < 0 {
		return
	}
	MergeTables(st, TablesOf(e, e.Node(peer)))
}

// IOVector adapts a node's φ^io to the map-based convergence
// instrumentation; nodes with empty tables are excluded from similarity
// measurement, matching the paper's remark that PMs lacking resources may
// own no Q-values after the learning phase. Kept as a compatibility adapter
// for tests; measurement hot paths use IOVectorDense.
func IOVector(e *sim.Engine, n *sim.Node) map[IOKey]float64 {
	t := TablesOf(e, n)
	if t.Out.Len()+t.In.Len() == 0 {
		return nil
	}
	return t.IOFlat()
}

// IOVectorDense adapts a node's dense φ^io buffer to the aligned-slice
// convergence instrumentation, with the same empty-table exclusion as
// IOVector.
func IOVectorDense(e *sim.Engine, n *sim.Node) []float64 {
	t := TablesOf(e, n)
	if t.Out.Len()+t.In.Len() == 0 {
		return nil
	}
	return t.IOVec()
}

// IOVectorDense32 is IOVectorDense over the float32 buffer — the adapter
// F32-tier stacks feed to gossip.MeanPairwiseCosineDense32 so convergence
// measurement reads the narrow backings directly.
func IOVectorDense32(e *sim.Engine, n *sim.Node) []float32 {
	t := TablesOf(e, n)
	if t.Out.Len()+t.In.Len() == 0 {
		return nil
	}
	return t.IOVec32()
}
