package pabfd

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// diffCase builds one cluster (with migration logging on) and optionally
// prepares it through its binding before the first pass. Calling build
// twice must yield identical clusters.
type diffCase struct {
	name   string
	rounds int
	build  func(t *testing.T) *dc.Cluster
	prep   func(t *testing.T, b *policy.Binding)
	// powerOns requires the reference to power at least one host back on,
	// so the case really exercises powerOnOne.
	powerOns bool
}

// generated is a synthetic-trace cluster; hetero alternates G5 (even IDs)
// and G4 (odd IDs) hosts.
func generated(pms, ratio, rounds int, seed uint64, hetero bool) func(t *testing.T) *dc.Cluster {
	return func(t *testing.T) *dc.Cluster {
		t.Helper()
		set, err := trace.GenerateStreaming(trace.DefaultGenConfig(pms*ratio, rounds, seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := dc.Config{PMs: pms, Workload: set, LogMigrations: true}
		if hetero {
			cfg.PMSpecFor = func(pm int) dc.PMSpec {
				if pm%2 == 1 {
					return dc.HPProLiantML110G4
				}
				return dc.HPProLiantML110G5
			}
		}
		c, err := dc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.PlaceRandom(sim.NewRNG(seed).Intn)
		return c
	}
}

// wave is a CSV-trace cluster whose demand alternates between a quiet
// phase, in which the controller evacuates and powers hosts off, and a busy
// phase that overloads the survivors and forces hosts back on. With jitter,
// per-VM levels are drawn from a seeded stream so thresholds and fits vary;
// without it every VM demands the same, so hosts with equal VM counts tie
// exactly and the scans' tie-breaks decide.
func wave(pms, vms, rounds int, seed uint64, jitter bool) func(t *testing.T) *dc.Cluster {
	return func(t *testing.T) *dc.Cluster {
		t.Helper()
		rng := sim.NewRNG(seed)
		var b bytes.Buffer
		b.WriteString("vm,round,cpu,mem\n")
		for vm := 0; vm < vms; vm++ {
			base, mem := 0.6, 0.15
			if jitter {
				base, mem = 0.2+0.6*rng.Float64(), 0.05+0.3*rng.Float64()
			}
			for r := 0; r < rounds; r++ {
				cpu := base * 0.25
				if (r/12)%2 == 1 {
					cpu = base
				}
				if jitter {
					cpu *= 0.9 + 0.2*rng.Float64()
				}
				fmt.Fprintf(&b, "%d,%d,%g,%g\n", vm, r, cpu, mem)
			}
		}
		set, err := trace.LoadCSV(&b)
		if err != nil {
			t.Fatal(err)
		}
		c, err := dc.New(dc.Config{PMs: pms, Workload: set, LogMigrations: true})
		if err != nil {
			t.Fatal(err)
		}
		c.PlaceRandom(sim.NewRNG(seed + 1).Intn)
		return c
	}
}

// packedWithSpare is TestReactivatesWhenNeeded's setup: PMs 0 and 1 hold
// every VM (PM 0 overloaded) and PM 2 starts empty and off.
func packedWithSpare(t *testing.T) *dc.Cluster {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("vm,round,cpu,mem\n")
	for vm := 0; vm < 11; vm++ {
		for r := 0; r < 5; r++ {
			fmt.Fprintf(&b, "%d,%d,1,0.2\n", vm, r)
		}
	}
	set, err := trace.LoadCSV(&b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dc.New(dc.Config{PMs: 3, Workload: set, LogMigrations: true})
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceRandom(sim.NewRNG(3).Intn)
	for i, vm := range c.VMs {
		if dst := c.PMs[i%2]; vm.Host() != dst.ID {
			if err := c.Migrate(vm, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func powerOffSpare(t *testing.T, b *policy.Binding) {
	t.Helper()
	if err := b.PowerOff(2); err != nil {
		t.Fatal(err)
	}
}

// TestControllerMatchesReference steps the reference controller and
// Controller side by side on identically built clusters, one pass per
// round, and requires the same migrations (VM, endpoints, round, cost) and
// the same powered set after every pass. It also checks that Controller's
// powered list agrees with the cluster after every pass.
func TestControllerMatchesReference(t *testing.T) {
	var cases []diffCase
	for _, seed := range []uint64{1, 2, 3} {
		cases = append(cases,
			diffCase{name: fmt.Sprintf("homogeneous-60x3-seed%d", seed), rounds: 60,
				build: generated(60, 3, 60, seed, false)},
			diffCase{name: fmt.Sprintf("homogeneous-40x4-seed%d", seed), rounds: 60,
				build: generated(40, 4, 60, seed, false)},
			diffCase{name: fmt.Sprintf("heterogeneous-60x3-seed%d", seed), rounds: 60,
				build: generated(60, 3, 60, seed, true)},
			diffCase{name: fmt.Sprintf("heterogeneous-40x4-seed%d", seed), rounds: 60,
				build: generated(40, 4, 60, seed, true)},
			diffCase{name: fmt.Sprintf("wave-30x90-seed%d", seed), rounds: 72,
				build: wave(30, 90, 72, seed, true), powerOns: true},
			diffCase{name: fmt.Sprintf("uniform-wave-30x90-seed%d", seed), rounds: 72,
				build: wave(30, 90, 72, seed, false), powerOns: true},
		)
	}
	cases = append(cases, diffCase{name: "packed-with-spare", rounds: 50,
		build: packedWithSpare, prep: powerOffSpare, powerOns: true})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refCl, newCl := tc.build(t), tc.build(t)
			refB, newB := bindFor(t, refCl), bindFor(t, newCl)
			if tc.prep != nil {
				tc.prep(t, refB)
				tc.prep(t, newB)
			}
			ref := &refController{B: refB, Safety: 2.5, HistoryLen: 30, FallbackThreshold: 0.8, Period: 1,
				history: make([][]float64, len(refCl.PMs))}
			ctrl := &Controller{B: newB, Safety: 2.5, HistoryLen: 30, FallbackThreshold: 0.8, Period: 1}

			powerOns := 0
			for r := 0; r < tc.rounds; r++ {
				before := poweredIDs(refCl)
				refCl.AdvanceRound(r)
				newCl.AdvanceRound(r)
				ref.Step(r)
				ctrl.Step(r)

				refLog, newLog := refCl.MigrationLog(), newCl.MigrationLog()
				if !slices.Equal(refLog, newLog) {
					t.Fatalf("round %d: migrations diverge at record %d:\nreference %v\ncontroller %v",
						r, firstDiff(refLog, newLog), tail(refLog), tail(newLog))
				}
				refOn, newOn := poweredIDs(refCl), poweredIDs(newCl)
				if !slices.Equal(refOn, newOn) {
					t.Fatalf("round %d: powered sets differ:\nreference %v\ncontroller %v", r, refOn, newOn)
				}
				if !slices.Equal(ctrl.on, newOn) {
					t.Fatalf("round %d: powered list %v, cluster %v", r, ctrl.on, newOn)
				}
				for _, id := range refOn {
					if !slices.Contains(before, id) {
						powerOns++
					}
				}
			}
			t.Logf("%d migrations, %d power-ons", len(refCl.MigrationLog()), powerOns)
			if len(refCl.MigrationLog()) == 0 {
				t.Fatal("no migrations: the case exercises nothing")
			}
			if tc.powerOns && powerOns == 0 {
				t.Fatal("the reference never powered a host on")
			}
			if err := newCl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func bindFor(t *testing.T, cl *dc.Cluster) *policy.Binding {
	t.Helper()
	b, err := policy.Bind(sim.NewEngine(len(cl.PMs), 1), cl)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func poweredIDs(cl *dc.Cluster) []int32 {
	var ids []int32
	for _, pm := range cl.PMs {
		if pm.On() {
			ids = append(ids, int32(pm.ID))
		}
	}
	return ids
}

func firstDiff(a, b []dc.Migration) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func tail(log []dc.Migration) []dc.Migration {
	return log[max(len(log)-3, 0):]
}
