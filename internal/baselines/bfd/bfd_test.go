package bfd

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

func clusterWithDemands(t *testing.T, pms int, cpus []float64) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm, cpu := range cpus {
		for r := 0; r < 2; r++ {
			fmt.Fprintf(&b, "%d,%d,%g,0.1\n", vm, r, cpu)
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
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	return c
}

func TestMinActivePMsHandComputed(t *testing.T) {
	// 4 VMs at 100% CPU (500 MIPS each): 5 fit per 2660-MIPS PM, so one
	// bin suffices for 4.
	c := clusterWithDemands(t, 10, []float64{1, 1, 1, 1})
	if got := MinActivePMs(c, 0); got != 1 {
		t.Fatalf("packing = %d, want 1", got)
	}
	// 6 VMs at 100%: 3000 MIPS needs 2 bins.
	c = clusterWithDemands(t, 10, []float64{1, 1, 1, 1, 1, 1})
	if got := MinActivePMs(c, 0); got != 2 {
		t.Fatalf("packing = %d, want 2", got)
	}
}

func TestMinActivePMsLowerBound(t *testing.T) {
	// Bin count can never be below ceil(total demand / capacity).
	demands := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.9, 0.8, 0.2}
	c := clusterWithDemands(t, 10, demands)
	var total float64
	for _, d := range demands {
		total += d * 500
	}
	lower := int(total/2660) + 1
	got := MinActivePMs(c, 0)
	if got < lower {
		t.Fatalf("packing %d below LP bound %d", got, lower)
	}
	if got > len(demands) {
		t.Fatalf("packing %d above trivial bound", got)
	}
}

func TestMinActivePMsHeadroom(t *testing.T) {
	// With 50% headroom each bin holds half as much: count must not
	// decrease, and for this workload strictly increases.
	c := clusterWithDemands(t, 10, []float64{1, 1, 1, 1, 1, 1, 1, 1})
	loose := MinActivePMs(c, 0)
	tight := MinActivePMs(c, 0.5)
	if tight < loose {
		t.Fatalf("headroom reduced bins: %d < %d", tight, loose)
	}
	if tight == loose {
		t.Fatalf("50%% headroom should need more bins (%d)", tight)
	}
}

func TestMinActivePMsEmpty(t *testing.T) {
	set, err := trace.Generate(trace.DefaultGenConfig(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: 2, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	// One VM, zero headroom: exactly 1 bin.
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	if got := MinActivePMs(c, 0); got != 1 {
		t.Fatalf("packing = %d, want 1", got)
	}
}

func TestMinActivePMsMemoryBound(t *testing.T) {
	// VMs whose memory dominates: 613 MB each at 100%, 4096/613 = 6 per
	// bin; 13 VMs need 3 bins even though CPU is tiny.
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < 13; vm++ {
		fmt.Fprintf(&b, "%d,0,0.01,1.0\n", vm)
		fmt.Fprintf(&b, "%d,1,0.01,1.0\n", vm)
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: 13, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	c.PlaceRandom(rng.Intn)
	if got := MinActivePMs(c, 0); got != 3 {
		t.Fatalf("memory-bound packing = %d, want 3", got)
	}
}

func TestMinActivePMsPacksOnlyPresentVMs(t *testing.T) {
	// Eight VMs at 100% (500 MIPS each; five fit a 2660-MIPS bin). VMs 5
	// and 6 depart at round 1 and VM 7 arrives only at round 5: at round 0
	// seven VMs need two bins, at round 1 the five present ones fit in one.
	// Counting the absent VMs' stale demand would keep two bins.
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < 8; vm++ {
		for r := 0; r < 2; r++ {
			fmt.Fprintf(&b, "%d,%d,1,0.1\n", vm, r)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: 10, Workload: set})
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range [][3]int{{5, 0, 1}, {6, 0, 1}, {7, 5, -1}} {
		if err := c.SetLifecycle(lc[0], lc[1], lc[2]); err != nil {
			t.Fatal(err)
		}
	}
	c.PlaceRandom(sim.NewRNG(1).Intn)
	c.AdvanceRound(0)
	if got := MinActivePMs(c, 0); got != 2 {
		t.Fatalf("round 0 packing = %d, want 2 (seven present VMs)", got)
	}
	c.AdvanceRound(1)
	if !c.VMs[5].Departed() || !c.VMs[6].Departed() || c.VMs[7].Present() {
		t.Fatal("setup: VMs 5 and 6 should have departed and VM 7 not arrived")
	}
	if got := MinActivePMs(c, 0); got != 1 {
		t.Fatalf("round 1 packing = %d, want 1 (five present VMs)", got)
	}
}
