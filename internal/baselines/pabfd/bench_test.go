package pabfd

import (
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// benchRun times full PABFD runs: a 500-PM, 2000-VM cluster on a synthetic
// streaming trace, 60 rounds with a controller pass every third round.
// Building the cluster is outside the timer; the timed part includes the
// workload refresh of every round.
func benchRun(b *testing.B, install func(*sim.Engine, *policy.Binding)) {
	const pms, ratio, rounds = 500, 4, 60
	set, err := trace.GenerateStreaming(trace.DefaultGenConfig(pms*ratio, rounds, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := dc.New(dc.Config{PMs: pms, Workload: set})
		if err != nil {
			b.Fatal(err)
		}
		cl.PlaceRandom(sim.NewRNG(1).Intn)
		e := sim.NewEngine(pms, 1)
		bd, err := policy.Bind(e, cl)
		if err != nil {
			b.Fatal(err)
		}
		install(e, bd)
		b.StartTimer()
		e.RunRounds(rounds)
	}
}

func BenchmarkControllerRun(b *testing.B) {
	benchRun(b, func(e *sim.Engine, bd *policy.Binding) { Install(e, bd) })
}

// BenchmarkReferenceControllerRun is BenchmarkControllerRun on the retained
// map-based reference controller.
func BenchmarkReferenceControllerRun(b *testing.B) {
	benchRun(b, func(e *sim.Engine, bd *policy.Binding) { installRef(e, bd) })
}

// TestThresholdZeroAllocs pins the MAD threshold over a full history window
// at zero allocations once the scratch buffer has grown.
func TestThresholdZeroAllocs(t *testing.T) {
	c := &Controller{Safety: 2.5, FallbackThreshold: 0.8, HistoryLen: 30}
	h := make([]float64, 2*c.HistoryLen) // wraps the ring
	for i := range h {
		h[i] = 0.3 + 0.01*float64(i%7)
	}
	setHistory(c, h)
	_ = c.threshold(0)
	if n := testing.AllocsPerRun(200, func() { _ = c.threshold(0) }); n != 0 {
		t.Fatalf("threshold allocates %v times per call; want 0", n)
	}
}
