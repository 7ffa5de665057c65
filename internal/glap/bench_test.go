package glap

import (
	"testing"

	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func newBenchCyclon() *cyclon.Protocol { return cyclon.New(20, 8) }

func benchTrace(vms int) (*trace.Set, error) {
	return trace.Generate(trace.DefaultGenConfig(vms, 200, 5))
}

// BenchmarkLearningRound measures one Algorithm 1 round over a 100-PM
// cluster — the dominant cost of GLAP pre-training.
func BenchmarkLearningRound(b *testing.B) {
	cl := benchGenCluster(b, 100, 300)
	e := sim.NewEngine(100, 1)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		b.Fatal(err)
	}
	learn := &LearnProtocol{Cfg: DefaultConfig(), B: bd}
	e.Register(newBenchCyclon())
	e.Register(learn)
	e.RunRounds(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkAggRound measures one Algorithm 2 round (pairwise table
// unification across the cluster) — the aggregation-phase hot path the
// dense Q-table backing exists for.
func BenchmarkAggRound(b *testing.B) {
	cl := benchGenCluster(b, 100, 300)
	e := sim.NewEngine(100, 1)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		b.Fatal(err)
	}
	e.Register(newBenchCyclon())
	learn := &LearnProtocol{Cfg: DefaultConfig(), B: bd}
	e.RegisterWindow(learn, 1, 0, 19) // populate tables first
	e.Register(&AggProtocol{})
	e.RunRounds(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkConsolidationRound measures one Algorithm 3 round with converged
// tables over a 200-PM cluster.
func BenchmarkConsolidationRound(b *testing.B) {
	pre := benchGenCluster(b, 50, 150)
	res, err := Pretrain(Config{LearnRounds: 20, AggRounds: 10}, pre, 1, PretrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	shared, err := SharedTables(res)
	if err != nil {
		b.Fatal(err)
	}
	cl := benchGenCluster(b, 200, 600)
	e := sim.NewEngine(200, 2)
	bd, err := policy.Bind(e, cl)
	if err != nil {
		b.Fatal(err)
	}
	InstallConsolidation(e, bd, shared, Config{}, PretrainOptions{})
	e.RunRounds(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkIOVec measures the reusable dense φ^io fill that convergence
// measurement runs on every node at every sample.
func BenchmarkIOVec(b *testing.B) {
	tb := &NodeTables{Out: qlearn.New(0.5, 0.8), In: qlearn.New(0.5, 0.8)}
	for s := 0; s < 81; s++ {
		for a := 0; a < 81; a++ {
			tb.Out.Set(qlearn.State(s), qlearn.Action(a), float64(s+a))
			tb.In.Set(qlearn.State(s), qlearn.Action(a), float64(s-a))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.IOVec()
	}
}

// BenchmarkTrainOnce measures one fused simulated-migration training
// iteration — Algorithm 1's inner loop — over a typical collected profile
// set. The fused kernel must run allocation-free in steady state; CI runs
// this bench with -benchmem and TestTrainOnceZeroAllocs pins the invariant.
func BenchmarkTrainOnce(b *testing.B) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	sc := &st.scratch
	for _, p := range benchProfiles(6, 11) {
		sc.base = append(sc.base, profileToKernel(p))
	}
	sc.total = coverCount(sc.base, benchCapacity[dc.CPU], cfg.DuplicationTargetUtil)
	rng := sim.NewRNG(3)
	for i := 0; i < 64; i++ {
		l.trainOnce(rng, st, sc, benchCapacity)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.trainOnce(rng, st, sc, benchCapacity)
	}
}

// BenchmarkTrainOnceReference is the retained pre-fusion baseline for
// BenchmarkTrainOnce: materialised multiset, partition into an allocated
// subset slice, four O(P) subset scans per iteration.
func BenchmarkTrainOnceReference(b *testing.B) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	dup := duplicateToCover(benchProfiles(6, 11), benchCapacity, cfg.DuplicationTargetUtil)
	rng := sim.NewRNG(3)
	for i := 0; i < 64; i++ {
		l.refTrainOnce(rng, st, dup, benchCapacity)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.refTrainOnce(rng, st, dup, benchCapacity)
	}
}

// TestTrainOnceZeroAllocs pins the fused kernel's steady-state allocation
// count at exactly zero — the regression guard behind BenchmarkTrainOnce.
func TestTrainOnceZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	l := &LearnProtocol{Cfg: cfg}
	st := &NodeTables{Out: qlearn.New(cfg.Alpha, cfg.Gamma), In: qlearn.New(cfg.Alpha, cfg.Gamma)}
	// Pre-size the cell arrays: the compact backing grows amortised, and a
	// measured iteration that visits a brand-new cell at a capacity boundary
	// would otherwise count one legitimate growth allocation.
	st.Out.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
	st.In.Reserve(qlearn.DenseSpan * qlearn.DenseSpan)
	sc := &st.scratch
	for _, p := range benchProfiles(6, 11) {
		sc.base = append(sc.base, profileToKernel(p))
	}
	sc.total = coverCount(sc.base, benchCapacity[dc.CPU], cfg.DuplicationTargetUtil)
	rng := sim.NewRNG(3)
	for i := 0; i < 64; i++ {
		l.trainOnce(rng, st, sc, benchCapacity)
	}
	if n := testing.AllocsPerRun(200, func() {
		l.trainOnce(rng, st, sc, benchCapacity)
	}); n != 0 {
		t.Fatalf("fused trainOnce allocates %v times per iteration; want 0", n)
	}
}

func BenchmarkLevelOf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LevelOf(float64(i%100) / 100)
	}
}

func BenchmarkStatePack(b *testing.B) {
	ls := Levels{X3High, Medium}
	for i := 0; i < b.N; i++ {
		_ = LevelsOfState(ls.State())
	}
}

// helpers shared by the benchmarks (the test helpers take *testing.T).

func benchGenCluster(b *testing.B, pms, vms int) *dc.Cluster {
	b.Helper()
	set, err := benchTrace(vms)
	if err != nil {
		b.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(7)
	c.PlaceRandom(rng.Intn)
	return c
}
