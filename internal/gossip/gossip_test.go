package gossip

import (
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/sim"
)

func TestAverageConvergesUniformSelector(t *testing.T) {
	const n = 50
	e := sim.NewEngine(n, 1)
	avg := NewAverage("avg", func(e *sim.Engine, node *sim.Node) float64 {
		return float64(node.ID) // mean = (n-1)/2
	}, UniformSelector)
	e.Register(avg)
	e.RunRounds(40)

	want := float64(n-1) / 2
	for _, node := range e.Nodes() {
		got := StateOf[*Scalar](e, "avg", node).V
		if math.Abs(got-want) > 0.5 {
			t.Fatalf("node %d converged to %g, want ~%g", node.ID, got, want)
		}
	}
}

func TestAverageConvergesCyclonSelector(t *testing.T) {
	const n = 50
	e := sim.NewEngine(n, 2)
	e.Register(cyclon.New(8, 4))
	avg := NewAverage("avg", func(e *sim.Engine, node *sim.Node) float64 {
		if node.ID == 0 {
			return float64(n) // one hot node
		}
		return 0
	}, nil) // default: Cyclon
	e.Register(avg)
	e.RunRounds(60)

	for _, node := range e.Nodes() {
		got := StateOf[*Scalar](e, "avg", node).V
		if math.Abs(got-1) > 0.5 {
			t.Fatalf("node %d converged to %g, want ~1", node.ID, got)
		}
	}
}

func TestAveragePreservesMass(t *testing.T) {
	// Push-pull averaging conserves the sum exactly.
	const n = 16
	e := sim.NewEngine(n, 3)
	avg := NewAverage("avg", func(e *sim.Engine, node *sim.Node) float64 {
		return float64(node.ID * node.ID)
	}, UniformSelector)
	e.Register(avg)
	var want float64
	for i := 0; i < n; i++ {
		want += float64(i * i)
	}
	e.RunRounds(25)
	var got float64
	for _, node := range e.Nodes() {
		got += StateOf[*Scalar](e, "avg", node).V
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("mass not conserved: %g vs %g", got, want)
	}
}

func TestUniformSelector(t *testing.T) {
	e := sim.NewEngine(10, 4)
	e.Register(NewAverage("x", func(e *sim.Engine, n *sim.Node) float64 { return 0 }, UniformSelector))
	e.RunRounds(1)
	rng := sim.NewRNG(5)
	counts := map[int]int{}
	self := e.Node(0)
	for i := 0; i < 2000; i++ {
		p := UniformSelector(e, self, rng)
		if p == 0 || p < 0 {
			t.Fatalf("selected %d", p)
		}
		counts[p]++
	}
	for id := 1; id < 10; id++ {
		if counts[id] < 120 {
			t.Fatalf("peer %d selected only %d times", id, counts[id])
		}
	}
}

func TestUniformSelectorSkipsDead(t *testing.T) {
	e := sim.NewEngine(5, 6)
	e.Register(NewAverage("x", func(e *sim.Engine, n *sim.Node) float64 { return 0 }, UniformSelector))
	e.RunRounds(1)
	for id := 1; id < 4; id++ {
		e.SetUp(e.Node(id), false)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 50; i++ {
		if p := UniformSelector(e, e.Node(0), rng); p != 4 {
			t.Fatalf("selected %d, want 4 (only live peer)", p)
		}
	}
	e.SetUp(e.Node(4), false)
	if p := UniformSelector(e, e.Node(0), rng); p != -1 {
		t.Fatalf("selected %d with no live peers", p)
	}
}

func TestDeadNodesDoNotGossip(t *testing.T) {
	e := sim.NewEngine(4, 12)
	avg := NewAverage("avg", func(e *sim.Engine, n *sim.Node) float64 {
		return float64(n.ID)
	}, UniformSelector)
	e.Register(avg)
	e.SetUp(e.Node(3), false)
	e.RunRounds(30)
	// Node 3's value must be untouched: nobody selects it, it never acts.
	if got := StateOf[*Scalar](e, "avg", e.Node(3)).V; got != 3 {
		t.Fatalf("dead node value changed to %g", got)
	}
	// Live nodes converge to mean of 0,1,2 = 1.
	for id := 0; id < 3; id++ {
		got := StateOf[*Scalar](e, "avg", e.Node(id)).V
		if math.Abs(got-1) > 0.2 {
			t.Fatalf("node %d converged to %g, want ~1", id, got)
		}
	}
}

func TestMeanPairwiseCosineDense(t *testing.T) {
	e := sim.NewEngine(6, 8)
	vecs := make([][]float64, 6)
	for i := range vecs {
		vecs[i] = []float64{1, 2, 0}
	}
	vf := func(e *sim.Engine, n *sim.Node) []float64 { return vecs[n.ID] }
	rng := sim.NewRNG(9)
	if got := MeanPairwiseCosineDense(e, vf, 32, rng); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical vectors similarity = %g", got)
	}
	// Orthogonal halves: mean similarity well below 1.
	for id := 3; id < 6; id++ {
		vecs[id] = []float64{0, 0, 1}
	}
	if got := MeanPairwiseCosineDense(e, vf, 256, rng); got > 0.8 {
		t.Fatalf("orthogonal halves similarity = %g", got)
	}
}

func TestMeanPairwiseCosineDenseEdgeCases(t *testing.T) {
	e := sim.NewEngine(3, 10)
	rng := sim.NewRNG(1)
	empty := func(e *sim.Engine, n *sim.Node) []float64 { return nil }
	if got := MeanPairwiseCosineDense(e, empty, 8, rng); got != 1 {
		t.Fatalf("no holders similarity = %g, want 1", got)
	}
	one := func(e *sim.Engine, n *sim.Node) []float64 {
		if n.ID == 0 {
			return []float64{1}
		}
		return nil
	}
	if got := MeanPairwiseCosineDense(e, one, 8, rng); got != 1 {
		t.Fatalf("single holder similarity = %g, want 1", got)
	}
	// Down nodes are excluded.
	all := func(e *sim.Engine, n *sim.Node) []float64 { return []float64{1} }
	e.SetUp(e.Node(1), false)
	e.SetUp(e.Node(2), false)
	if got := MeanPairwiseCosineDense(e, all, 8, rng); got != 1 {
		t.Fatalf("single up holder similarity = %g, want 1", got)
	}
}

func TestAllPairsCosineDense(t *testing.T) {
	e := sim.NewEngine(4, 11)
	vecs := [][]float64{
		{1, 0},
		{1, 0},
		{0, 1},
		nil,
	}
	vf := func(e *sim.Engine, n *sim.Node) []float64 { return vecs[n.ID] }
	// Pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> mean 1/3.
	if got := AllPairsCosineDense(e, vf); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("AllPairsCosineDense = %g, want 1/3", got)
	}
}

// TestDenseMatchesMapCosine cross-checks the dense instrumentation against
// the map oracle below on identical data: the dense vectors are the map
// vectors laid out over a fixed index space, so all-pairs similarity must
// agree to float rounding.
func TestDenseMatchesMapCosine(t *testing.T) {
	const dim = 64
	e := sim.NewEngine(8, 13)
	rng := sim.NewRNG(17)
	maps := make([]map[int]float64, 8)
	dense := make([][]float64, 8)
	for i := range maps {
		maps[i] = make(map[int]float64)
		dense[i] = make([]float64, dim)
		for k := 0; k < dim; k++ {
			if rng.Float64() < 0.4 {
				v := rng.Float64()*4 - 2
				maps[i][k] = v
				dense[i][k] = v
			}
		}
	}
	mf := func(e *sim.Engine, n *sim.Node) map[int]float64 { return maps[n.ID] }
	df := func(e *sim.Engine, n *sim.Node) []float64 { return dense[n.ID] }
	got := AllPairsCosineDense(e, df)
	want := allPairsCosineMap(e, mf)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("dense %g vs map %g", got, want)
	}
}

// allPairsCosineMap is the retired map-based convergence measurement, kept
// as the oracle for TestDenseMatchesMapCosine: the exact mean pairwise
// cosine similarity across all pairs of up nodes with non-empty vectors.
func allPairsCosineMap[K comparable](e *sim.Engine, vec func(e *sim.Engine, n *sim.Node) map[K]float64) float64 {
	var vecs []map[K]float64
	for _, n := range e.Nodes() {
		if !n.Up() {
			continue
		}
		if v := vec(e, n); v != nil && len(v) > 0 {
			vecs = append(vecs, v)
		}
	}
	if len(vecs) < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			sum += cosineMaps(vecs[i], vecs[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}

// cosineMaps computes cosine similarity between two sparse vectors
// represented as maps. Keys missing from one map contribute a zero
// coordinate.
func cosineMaps[K comparable](a, b map[K]float64) float64 {
	var dot, na, nb float64
	for k, va := range a {
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// TestCosineMaps checks the map oracle itself, so a fault in it cannot mask
// a fault in the dense path it is compared against.
func TestCosineMaps(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	b := map[string]float64{"x": 1, "y": 2}
	if got := cosineMaps(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("identical maps cosine = %g, want 1", got)
	}
	if got := cosineMaps(a, map[string]float64{"z": 5}); got != 0 {
		t.Fatalf("disjoint maps cosine = %g, want 0", got)
	}
	if got := cosineMaps(map[string]float64{}, a); got != 0 {
		t.Fatalf("empty map cosine = %g, want 0", got)
	}
}

// TestAllPairsCosine checks the all-pairs map oracle on a hand-computed
// case, including a node with no vector.
func TestAllPairsCosine(t *testing.T) {
	e := sim.NewEngine(4, 11)
	vecs := map[int]map[string]float64{
		0: {"a": 1},
		1: {"a": 1},
		2: {"b": 1},
		3: nil,
	}
	vf := func(e *sim.Engine, n *sim.Node) map[string]float64 { return vecs[n.ID] }
	// Pairs: (0,1)=1, (0,2)=0, (1,2)=0 -> mean 1/3.
	if got := allPairsCosineMap(e, vf); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("allPairsCosineMap = %g, want 1/3", got)
	}
}
