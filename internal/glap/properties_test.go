package glap

// Property-style tests on invariants of the learned Q-values.

import (
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// trainedTables runs a learning-only stack and pools every node's tables.
func trainedTables(t *testing.T, seed uint64) []*NodeTables {
	t.Helper()
	cl := genCluster(t, 16, 48, 60, seed)
	e := sim.NewEngine(16, seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(8, 4))
	e.Register(&LearnProtocol{Cfg: DefaultConfig(), B: b})
	e.RunRounds(30)
	var out []*NodeTables
	for _, n := range e.Nodes() {
		out = append(out, TablesOf(e, n))
	}
	return out
}

func TestOutTableValuesNonNegativeAndBounded(t *testing.T) {
	// R_out is positive everywhere, Q starts at 0 and the update is a
	// convex combination with a positive target, so out-values must stay
	// in [0, Rmax/(1-γ)].
	cfg := DefaultConfig()
	rmax := 0.0
	for _, r := range cfg.RewardOut {
		if 2*r > rmax { // two resources aggregate
			rmax = 2 * r
		}
	}
	bound := rmax / (1 - cfg.Gamma)
	for _, tb := range trainedTables(t, 3) {
		for _, k := range tb.Out.Keys() {
			v := tb.Out.Get(k.S, k.A)
			if v < 0 {
				t.Fatalf("negative out-value %g at %v", v, k)
			}
			if v > bound+1e-9 {
				t.Fatalf("out-value %g exceeds Bellman bound %g", v, bound)
			}
		}
	}
}

func TestInTableValuesBoundedBelow(t *testing.T) {
	// The most negative reachable in-value is bounded by the Bellman
	// fixed point with the full overload penalty on both resources.
	cfg := DefaultConfig()
	worstReward := 2 * cfg.RewardIn[Overload] // both resources overloaded
	lower := worstReward / (1 - cfg.Gamma)
	for _, tb := range trainedTables(t, 5) {
		for _, k := range tb.In.Keys() {
			v := tb.In.Get(k.S, k.A)
			if v < lower-1e-9 {
				t.Fatalf("in-value %g below Bellman lower bound %g", v, lower)
			}
		}
	}
}

func TestStatesWithinCalibratedSpace(t *testing.T) {
	// Every learned cell's state and action must decode to valid level
	// pairs (membership in the 81-element calibrated space).
	for _, tb := range trainedTables(t, 7) {
		check := func(kS, kA uint32) {
			if kS >= 81 || kA >= 81 {
				t.Fatalf("cell (%d, %d) outside the 81x81 space", kS, kA)
			}
		}
		for _, k := range tb.Out.Keys() {
			check(uint32(k.S), uint32(k.A))
		}
		for _, k := range tb.In.Keys() {
			check(uint32(k.S), uint32(k.A))
		}
	}
}

func TestLearningIsDeterministic(t *testing.T) {
	a := trainedTables(t, 11)
	b := trainedTables(t, 11)
	for i := range a {
		if a[i].Out.Len() != b[i].Out.Len() || a[i].In.Len() != b[i].In.Len() {
			t.Fatalf("node %d tables differ across identical runs", i)
		}
		for _, k := range a[i].Out.Keys() {
			if a[i].Out.Get(k.S, k.A) != b[i].Out.Get(k.S, k.A) {
				t.Fatalf("node %d out cell %v differs", i, k)
			}
		}
	}
}

// cellRanges holds, per calibrated cell, whether any node holds it and the
// min and max of its value over the nodes that do.
type cellRanges struct {
	held   [ioSpan * ioSpan]bool
	lo, hi [ioSpan * ioSpan]float64
}

// collectRanges fills r from every node's table (table picks Out or In).
func collectRanges(t *testing.T, e *sim.Engine, table func(*NodeTables) *qlearn.Table, r *cellRanges) {
	*r = cellRanges{}
	for _, n := range e.Nodes() {
		tb := table(TablesOf(e, n))
		for _, k := range tb.Keys() {
			if int(k.S) >= ioSpan || int(k.A) >= ioSpan {
				t.Fatalf("cell %v outside the calibrated space", k)
			}
			i, v := int(k.S)*ioSpan+int(k.A), tb.Get(k.S, k.A)
			if !r.held[i] {
				r.held[i], r.lo[i], r.hi[i] = true, v, v
			}
			r.lo[i], r.hi[i] = min(r.lo[i], v), max(r.hi[i], v)
		}
	}
}

// TestAggregationContractsCellRanges checks an exact invariant of
// Algorithm 2: from the learn→aggregate boundary on, a merge either copies an
// existing value (adoption) or writes the float64 midpoint of two values,
// which lies within them. So for every cell of Out and In, the max over its
// holders never increases and the min never decreases, round after round,
// and no cell appears that no node held at the boundary. The engine is built
// as Pretrain builds it.
func TestAggregationContractsCellRanges(t *testing.T) {
	tables := []struct {
		name string
		get  func(*NodeTables) *qlearn.Table
	}{
		{"Out", func(nt *NodeTables) *qlearn.Table { return nt.Out }},
		{"In", func(nt *NodeTables) *qlearn.Table { return nt.In }},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := genCluster(t, 24, 72, 120, seed)
			cfg := Config{LearnRounds: 40, AggRounds: 40}.withDefaults()
			e := sim.NewEngine(len(cl.PMs), seed)
			b, err := policy.Bind(e, cl)
			if err != nil {
				t.Fatal(err)
			}
			e.Register(cyclon.New(0, 0))
			e.RegisterWindow(&LearnProtocol{Cfg: cfg, B: b}, 1, 0, cfg.LearnRounds-1)
			e.RegisterWindow(&AggProtocol{}, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)

			var prev, cur [2]cellRanges
			checks := 0
			e.Observe(func(e *sim.Engine, round int) {
				if round < cfg.LearnRounds-1 {
					return
				}
				for ti, tb := range tables {
					collectRanges(t, e, tb.get, &cur[ti])
					if round >= cfg.LearnRounds {
						p, c := &prev[ti], &cur[ti]
						for i, held := range c.held {
							switch {
							case !held:
								continue
							case !p.held[i]:
								t.Errorf("seed %d round %d %s cell %d: appeared during aggregation", seed, round, tb.name, i)
							case c.hi[i] > p.hi[i] || c.lo[i] < p.lo[i]:
								t.Errorf("seed %d round %d %s cell %d: range [%v, %v] escaped [%v, %v]",
									seed, round, tb.name, i, c.lo[i], c.hi[i], p.lo[i], p.hi[i])
							}
							checks++
						}
					}
				}
				prev = cur
			})
			e.RunRounds(cfg.LearnRounds + cfg.AggRounds)
			if checks == 0 {
				t.Fatalf("seed %d: no cell was checked", seed)
			}
		})
	}
}
