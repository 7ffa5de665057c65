// Package gossip provides the generic push-pull epidemic building blocks the
// GLAP stack is assembled from: a round-based push-pull protocol over an
// arbitrary per-node state with a symmetric merge function, a scalar
// averaging specialisation, and the convergence instrumentation (pairwise
// cosine similarity) used by the Figure 5 experiment.
package gossip

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
)

// PeerSelector picks a gossip partner for node n, returning -1 when none is
// available.
type PeerSelector func(e *sim.Engine, n *sim.Node, rng *sim.RNG) int

// CyclonSelector samples a live peer from the node's Cyclon view; it is the
// default selector for every protocol in this reproduction.
func CyclonSelector(e *sim.Engine, n *sim.Node, rng *sim.RNG) int {
	return cyclon.SelectPeer(e, n, rng)
}

// UniformSelector samples a live peer uniformly from the whole network. It
// models an idealised peer-sampling service and is used in tests to separate
// protocol behaviour from overlay quality.
func UniformSelector(e *sim.Engine, n *sim.Node, rng *sim.RNG) int {
	alive := 0
	for _, m := range e.Nodes() {
		if m.Up() && m.ID != n.ID {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	k := rng.Intn(alive)
	for _, m := range e.Nodes() {
		if m.Up() && m.ID != n.ID {
			if k == 0 {
				return m.ID
			}
			k--
		}
	}
	return -1
}

// Protocol is a push-pull epidemic over per-node state of type T. Each
// round, every up node selects one peer and the two states are merged
// symmetrically, exactly like the active/passive thread pair in the paper's
// Algorithm 2.
type Protocol[T any] struct {
	// ProtoName registers the protocol under this name.
	ProtoName string
	// Init builds node n's initial state.
	Init func(e *sim.Engine, n *sim.Node) T
	// Merge combines the two endpoint states in place.
	Merge func(a, b T)
	// Select picks the gossip partner; nil defaults to CyclonSelector.
	Select PeerSelector

	rng sim.BoundRNG
}

// Name implements sim.Protocol.
func (g *Protocol[T]) Name() string { return g.ProtoName }

// Setup implements sim.Protocol.
func (g *Protocol[T]) Setup(e *sim.Engine, n *sim.Node) any {
	return g.Init(e, n)
}

// Round implements sim.Protocol: one active push-pull exchange.
func (g *Protocol[T]) Round(e *sim.Engine, n *sim.Node, round int) {
	sel := g.Select
	if sel == nil {
		sel = CyclonSelector
	}
	peer := sel(e, n, g.rng.For(e, 0x60551b, hashName(g.ProtoName)))
	if peer < 0 {
		return
	}
	a := e.State(g.ProtoName, n).(T)
	b := e.State(g.ProtoName, e.Node(peer)).(T)
	g.Merge(a, b)
}

// StateOf returns node n's gossip state.
func StateOf[T any](e *sim.Engine, name string, n *sim.Node) T {
	return e.State(name, n).(T)
}

func hashName(s string) uint64 {
	// FNV-1a, enough to decorrelate RNG streams of same-shaped protocols.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Scalar is the per-node state of the averaging specialisation.
type Scalar struct {
	// V is the node's current estimate.
	V float64
}

// NewAverage returns a push-pull averaging protocol: after convergence every
// node's V approaches the network-wide mean of the initial values. This is
// the textbook aggregation epidemic whose convergence Theorem 1 analyses.
func NewAverage(name string, init func(e *sim.Engine, n *sim.Node) float64, sel PeerSelector) *Protocol[*Scalar] {
	return &Protocol[*Scalar]{
		ProtoName: name,
		Init: func(e *sim.Engine, n *sim.Node) *Scalar {
			return &Scalar{V: init(e, n)}
		},
		Merge:  MergeScalar,
		Select: sel,
	}
}
