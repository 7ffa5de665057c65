package glap

import (
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/gossip"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// runAsyncAgg builds a learning + async-aggregation stack and returns the
// engine after running learnRounds of training followed by aggRounds of
// message-passing aggregation with the given latency and loss.
func runAsyncAgg(t *testing.T, nodes, learnRounds, aggRounds int, latency sim.LatencyFunc, drop float64, seed uint64) *sim.Engine {
	t.Helper()
	cl := genCluster(t, nodes, 3*nodes, 100, seed)
	e := sim.NewEngine(nodes, seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(cyclon.New(8, 4))
	learn := &LearnProtocol{Cfg: DefaultConfig(), B: b}
	e.RegisterWindow(learn, 1, 0, learnRounds-1)

	tr := sim.NewTransport(e, latency)
	tr.DropProb = drop
	agg := &AsyncAggProtocol{Tr: tr}
	tr.Handle(agg)
	e.RegisterWindow(agg, 1, learnRounds, learnRounds+aggRounds-1)

	e.RunRounds(learnRounds + aggRounds)
	e.RunEvents(-1)
	return e
}

func TestAsyncAggConverges(t *testing.T) {
	e := runAsyncAgg(t, 20, 20, 40, sim.ConstantLatency(10), 0, 41)
	sim1 := gossip.AllPairsCosineDense(e, IOVectorDense)
	if sim1 < 0.999 {
		t.Fatalf("async aggregation similarity %g, want ~1", sim1)
	}
	// Key-set agreement: every node must hold the union.
	var ref *NodeTables
	for _, n := range e.Nodes() {
		tb := TablesOf(e, n)
		if ref == nil {
			ref = tb
			continue
		}
		if tb.Out.Len() != ref.Out.Len() || tb.In.Len() != ref.In.Len() {
			t.Fatalf("key sets differ: %d/%d vs %d/%d",
				tb.Out.Len(), tb.In.Len(), ref.Out.Len(), ref.In.Len())
		}
	}
}

func TestAsyncAggConvergesUnderLoss(t *testing.T) {
	// 10% message loss: convergence slows but must still reach high
	// similarity — averaging is a contraction even one-sided.
	e := runAsyncAgg(t, 20, 20, 80, sim.ConstantLatency(5), 0.10, 43)
	sim1 := gossip.AllPairsCosineDense(e, IOVectorDense)
	if sim1 < 0.99 {
		t.Fatalf("lossy async aggregation similarity %g, want > 0.99", sim1)
	}
}

func TestAsyncAggMatchesSyncDirection(t *testing.T) {
	// Async and sync aggregation must agree on the qualitative outcome:
	// starting from the same learned tables, both drive similarity from
	// well below 1 to ~1.
	eAsync := runAsyncAgg(t, 16, 15, 0, sim.ConstantLatency(3), 0, 47)
	before := gossip.AllPairsCosineDense(eAsync, IOVectorDense)
	if before > 0.95 {
		t.Skipf("learning phase already converged (%g); nothing to compare", before)
	}
	eAsync2 := runAsyncAgg(t, 16, 15, 40, sim.ConstantLatency(3), 0, 47)
	after := gossip.AllPairsCosineDense(eAsync2, IOVectorDense)
	if after <= before {
		t.Fatalf("async aggregation did not improve similarity: %g -> %g", before, after)
	}
	if after < 0.999 {
		t.Fatalf("async aggregation stalled at %g", after)
	}
}
