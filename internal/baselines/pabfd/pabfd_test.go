package pabfd

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func constCluster(t *testing.T, pms, vms int, cpu, mem float64) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < vms; vm++ {
		for r := 0; r < 5; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,%g\n", vm, r, cpu, mem)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: pms, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	c.PlaceRandom(rng.Intn)
	return c
}

func install(t *testing.T, cl *dc.Cluster, seed uint64) (*sim.Engine, *Controller) {
	t.Helper()
	e := sim.NewEngine(len(cl.PMs), seed)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 1 // deterministic tests step every round
	return e, ctrl
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %g", got)
	}
	// MAD of {1,2,3,4,5}: median 3, deviations {2,1,0,1,2}, MAD = 1.
	if got := mad([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("mad = %g", got)
	}
	// MAD is robust: one huge outlier barely moves it.
	if got := mad([]float64{1, 2, 3, 4, 1000}); got > 2 {
		t.Fatalf("mad with outlier = %g", got)
	}
}

// setHistory replaces host 0's history window with xs, oldest first.
func setHistory(c *Controller, xs []float64) {
	c.initHistory(1)
	for _, x := range xs {
		c.record(0, x)
	}
}

func TestThresholdBounds(t *testing.T) {
	c := &Controller{Safety: 2.5, FallbackThreshold: 0.8, HistoryLen: 30}
	// Short history: fallback.
	setHistory(c, []float64{0.5, 0.5})
	if got := c.threshold(0); got != 0.8 {
		t.Fatalf("short-history threshold = %g", got)
	}
	// Stable history: MAD ~ 0, threshold ~ 1 (the robust-statistic trap
	// that lets PABFD pack to saturation).
	h := make([]float64, 20)
	for i := range h {
		h[i] = 0.5
	}
	setHistory(c, h)
	if got := c.threshold(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("stable-history threshold = %g, want 1", got)
	}
	// Wild history: floored at 0.4.
	for i := range h {
		h[i] = float64(i%2) * 0.9
	}
	setHistory(c, h)
	if got := c.threshold(0); got < 0.4-1e-9 {
		t.Fatalf("threshold below floor: %g", got)
	}
}

func TestConsolidatesUnderload(t *testing.T) {
	cl := constCluster(t, 12, 12, 0.2, 0.15)
	e, _ := install(t, cl, 1)
	e.RunRounds(10)
	if cl.ActivePMs() >= 12 {
		t.Fatalf("no consolidation: %d active", cl.ActivePMs())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMitigatesOverload(t *testing.T) {
	cl := constCluster(t, 3, 6, 1.0, 0.2)
	for _, vm := range cl.VMs {
		if vm.Host() != 0 {
			if err := cl.Migrate(vm, cl.PMs[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cl.Overloaded(cl.PMs[0]) {
		t.Fatal("setup: PM 0 should be overloaded")
	}
	e, _ := install(t, cl, 2)
	e.RunRounds(3)
	if cl.Overloaded(cl.PMs[0]) {
		t.Fatalf("controller failed to mitigate: %v", cl.CurUtil(cl.PMs[0]))
	}
}

func TestPowersOffEmptyHosts(t *testing.T) {
	cl := constCluster(t, 6, 4, 0.3, 0.2)
	e, _ := install(t, cl, 3)
	e.RunRounds(3)
	for _, pm := range cl.PMs {
		if pm.On() && pm.NumVMs() == 0 {
			t.Fatalf("PM %d empty but still on", pm.ID)
		}
	}
}

func TestReactivatesWhenNeeded(t *testing.T) {
	// Controller must power a host back on when no active host can absorb
	// an overload-relief migration. Build: 2 PMs, both packed to the brim,
	// then overload one; a third (empty, off) PM is the only escape.
	cl := constCluster(t, 3, 11, 1.0, 0.2)
	// PM2 empty and off; PMs 0,1 hold the VMs: 6 on PM0 (overloaded), 5 on
	// PM1 (2500/2660, no headroom for a 500-MIPS VM).
	for i, vm := range cl.VMs {
		dst := cl.PMs[i%2]
		if vm.Host() != dst.ID {
			if err := cl.Migrate(vm, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := sim.NewEngine(3, 4)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Empty PM 2 and power it off before the controller starts.
	if cl.PMs[2].NumVMs() != 0 {
		t.Fatal("setup: PM 2 should be empty")
	}
	if err := b.PowerOff(2); err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 1
	e.RunRounds(3)
	if cl.Overloaded(cl.PMs[0]) && !cl.PMs[2].On() {
		t.Fatal("controller neither mitigated overload nor reactivated a host")
	}
}

func TestPeriodSkipsRounds(t *testing.T) {
	cl := constCluster(t, 6, 4, 0.2, 0.15)
	e := sim.NewEngine(6, 5)
	b, err := policy.Bind(e, cl)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Install(e, b)
	ctrl.Period = 100 // only round 0 triggers
	steps := 0
	e.BeforeRound(func(e *sim.Engine, round int) {
		// Count controller activity indirectly via history growth.
		if ctrl.histN[0] > steps {
			steps = ctrl.histN[0]
		}
	})
	e.RunRounds(5)
	if steps > 1 {
		t.Fatalf("controller ran %d times, want 1", steps)
	}
}
