package main

import (
	"fmt"
	"time"

	"github.com/glap-sim/glap/internal/sim"
)

// layer names one per-layer time bucket of a traced run. Every nanosecond of
// a traced phase (pre-training, consolidation) lands in exactly one bucket:
// the tracer chains timestamps taken at layer boundaries, and each stamp
// charges the interval since the previous stamp to the layer that just ended.
type layer int

const (
	layerAdvance     layer = iota // dc.Cluster.AdvanceRound via the binding's BeforeRound hook
	layerShuffle                  // the Cyclon protocol pass
	layerLearn                    // Algorithm 1 (glap.LearnProtocol) pass
	layerAgg                      // Algorithm 2 (glap.AggProtocol) pass
	layerConsolidate              // Algorithm 3 (glap.ConsolidateProtocol) pass
	layerPABFD                    // pabfd.Controller.Step via its BeforeRound hook
	layerSample                   // the metrics collector's end-of-round sample
	layerOther                    // engine work between the layers above
	numLayers
)

var layerNames = [numLayers]string{
	layerAdvance:     "dc.advance",
	layerShuffle:     "cyclon.shuffle",
	layerLearn:       "glap.learn",
	layerAgg:         "glap.agg",
	layerConsolidate: "glap.consolidate",
	layerPABFD:       "pabfd.step",
	layerSample:      "metrics.sample",
	layerOther:       "sim.other",
}

// tracer accumulates layer times for one traced replication. It is driven
// from the engine's own goroutine (hooks and sequential marker protocols),
// so it needs no synchronisation. Its registration methods do nothing on a
// nil tracer, which is how untraced replications share the assembly code.
type tracer struct {
	last  time.Time
	total [numLayers]time.Duration
	cur   [numLayers]time.Duration
	// perRound holds each layer's time per round in milliseconds, for the
	// rounds in which the layer is scheduled (see scheduled).
	perRound [numLayers][]float64
	// scheduled reports whether a layer runs in a round of the engine
	// currently being traced.
	scheduled func(l layer, round int) bool
	// upNodeRounds sums Engine.UpCount() at the start of every round.
	upNodeRounds int64
	markers      int
}

// start opens a traced phase at t, the instant the phase's outer timer began.
func (t *tracer) start(at time.Time, scheduled func(l layer, round int) bool) {
	if t == nil {
		return
	}
	t.last = at
	t.scheduled = scheduled
	t.cur = [numLayers]time.Duration{}
}

// mark charges the time since the previous stamp to l.
func (t *tracer) mark(l layer) {
	if t == nil {
		return
	}
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	t.total[l] += d
	t.cur[l] += d
}

// endRound records the round's per-layer times and resets the round buckets.
func (t *tracer) endRound(round int) {
	for l := layer(0); l < numLayers; l++ {
		if t.scheduled(l, round) {
			t.perRound[l] = append(t.perRound[l], t.cur[l].Seconds()*1e3)
		}
		t.cur[l] = 0
	}
}

// sum is the total time charged to all layers.
func (t *tracer) sum() time.Duration {
	var s time.Duration
	for _, d := range t.total {
		s += d
	}
	return s
}

// roundStart registers e's first BeforeRound hook: it charges the time
// since the previous round ended (or since the phase began: engine set-up)
// to sim.other and counts the nodes that are up.
func (t *tracer) roundStart(e *sim.Engine) {
	if t == nil {
		return
	}
	e.BeforeRound(func(e *sim.Engine, _ int) {
		t.mark(layerOther)
		t.upNodeRounds += int64(e.UpCount())
	})
}

// before registers a BeforeRound hook that closes layer l.
func (t *tracer) before(e *sim.Engine, l layer) {
	if t != nil {
		e.BeforeRound(func(*sim.Engine, int) { t.mark(l) })
	}
}

// after registers an end-of-round observer that closes layer l.
func (t *tracer) after(e *sim.Engine, l layer) {
	if t != nil {
		e.Observe(func(*sim.Engine, int) { t.mark(l) })
	}
}

// roundEnd registers e's last observer: it closes layer l and records the
// round's per-layer times.
func (t *tracer) roundEnd(e *sim.Engine, l layer) {
	if t != nil {
		e.Observe(func(_ *sim.Engine, r int) {
			t.mark(l)
			t.endRound(r)
		})
	}
}

// register registers a marker protocol that closes layer l.
func (t *tracer) register(e *sim.Engine, l layer) {
	if t == nil {
		return
	}
	e.Register(&marker{name: fmt.Sprintf("perfbench.mark%d", t.markers), t: t, ends: l, round: -1})
	t.markers++
}

// marker is a zero-work protocol registered between the stack's protocols.
// Protocol passes run in registration order, so the first call of a round
// on a marker is the instant the previous protocol's pass ended; it charges
// that interval to the layer the marker closes. Its Setup returns no state
// and it draws no randomness, so the stack's protocols see an unchanged run.
type marker struct {
	name  string
	t     *tracer
	ends  layer
	round int
}

func (m *marker) Name() string                     { return m.name }
func (m *marker) Setup(*sim.Engine, *sim.Node) any { return nil }

func (m *marker) Round(_ *sim.Engine, _ *sim.Node, round int) {
	if round != m.round {
		m.round = round
		m.t.mark(m.ends)
	}
}
