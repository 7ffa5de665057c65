// Package pabfd implements the centralized baseline of the evaluation:
// Beloglazov & Buyya's PABFD ("Optimal online deterministic algorithms and
// adaptive heuristics for energy and performance efficient dynamic
// consolidation of virtual machines in cloud data centers", CCPE 2012). A
// central controller monitors every host, derives a per-pass adaptive upper
// CPU threshold from the Median Absolute Deviation (MAD) of recent host
// utilisation history, sheds VMs from hosts above the threshold (Minimum
// Migration Time selection), evacuates the least-utilised hosts, and places
// migrating VMs with Power-Aware Best Fit Decreasing.
package pabfd

import (
	"cmp"
	"slices"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/sim"
)

// Controller is the centralized PABFD manager. It is not a gossip protocol:
// Install hooks it to run one pass every Period rounds with global
// knowledge.
//
// A pass only ever looks at powered hosts, so it keeps them in an ascending
// ID list (rebuilt when the pass starts, updated on every power change the
// pass makes) and walks that list instead of the whole fleet. Each host's
// CurUtil is cached for the pass and refreshed for both endpoints after
// every migration; the cluster's per-PM demand sums change only on
// attach/detach, so the cache always holds exactly what CurUtil would
// return. Candidates are visited in the same order, and every float is
// computed with the same expression, as a full-fleet scan would, so the
// migrations are identical.
type Controller struct {
	B *policy.Binding
	// Safety is the MAD safety parameter s in T_u = 1 − s·MAD
	// (Beloglazov's evaluation uses s = 2.5).
	Safety float64
	// HistoryLen bounds the per-host utilisation history window. It is read
	// when the first pass sizes the history and must not change afterwards.
	HistoryLen int
	// FallbackThreshold is used until a host has enough history for a MAD
	// estimate.
	FallbackThreshold float64
	// Period is the controller's monitoring/optimisation period in rounds.
	// Beloglazov's controller runs every 5 minutes while the simulation
	// rounds are 2 minutes, so the default is 3 rounds: between controller
	// passes, demand keeps moving and overloads persist unmitigated — the
	// structural disadvantage of centralized DVMC the paper highlights.
	Period int

	// hist is one flat PMs × HistoryLen ring of CPU utilisation samples:
	// host p's window is hist[p*HistoryLen:(p+1)*HistoryLen], histN[p]
	// counts every sample recorded for it, and the next one overwrites slot
	// histN[p] % HistoryLen. The MAD sorts a copy, so the ring's rotation
	// never matters.
	hist  []float64
	histN []int
	// madBuf is the MAD's scratch copy of one window.
	madBuf []float64

	// Per-pass state, indexed by PM ID and reused across passes.
	on   []int32   // powered hosts, ascending
	th   []float64 // thresholds; valid for the hosts in on
	util []dc.Vec  // CurUtil; valid for the hosts in on
	shed []bool    // above its threshold when the pass started

	// Scratch reused across passes.
	pending []*dc.VM
	vms     []*dc.VM
	ids     []int
	order   []int32  // planPlacement's visiting order, as indexes into vms
	plan    []int32  // planPlacement's destination per vms index
	extra   []dc.Vec // demand a plan has already assigned to each host
	touched []int32  // hosts whose extra is set
}

// Install wires a PABFD controller into engine e. Its pass runs at the
// start of every Period-th round (round % Period == 0; every round when
// Period <= 1), after workload demand is refreshed.
func Install(e *sim.Engine, b *policy.Binding) *Controller {
	c := &Controller{
		B:                 b,
		Safety:            2.5,
		HistoryLen:        30,
		FallbackThreshold: 0.8,
		Period:            3,
	}
	e.BeforeRound(func(e *sim.Engine, round int) {
		if c.Period > 1 && round%c.Period != 0 {
			return
		}
		c.Step(round)
	})
	return c
}

// Step runs one full controller pass: record history, compute thresholds,
// mitigate overloads, then consolidate underloaded hosts.
func (c *Controller) Step(round int) {
	cl := c.B.C
	c.beginPass()

	// 1. Record utilisation history for active hosts and derive their
	// thresholds. A host powered on later in the pass gets its threshold
	// then; history does not change within a pass.
	for _, id := range c.on {
		c.record(int(id), c.util[id][dc.CPU])
		c.th[id] = c.threshold(int(id))
	}

	// 2. Overload mitigation: collect VMs from hosts above their threshold
	// using Minimum Migration Time (smallest memory first), until the
	// host's utilisation without the collected VMs is back under its
	// threshold. The running subtraction is the same left-to-right sum a
	// rescan of this host's collected VMs would compute.
	c.pending = c.pending[:0]
	for _, id := range c.on {
		u, th := c.util[id][dc.CPU], c.th[id]
		if u <= th {
			continue
		}
		c.shed[id] = true
		pm := cl.PMs[id]
		vms := c.vmsOf(pm)
		slices.SortFunc(vms, func(a, b *dc.VM) int {
			return cmp.Compare(a.CurAbs()[dc.Mem], b.CurAbs()[dc.Mem])
		})
		for _, vm := range vms {
			// Migrate-on-place: the VM stays attached until placement.
			c.pending = append(c.pending, vm)
			u -= vm.CurAbs()[dc.CPU] / pm.Spec.Capacity[dc.CPU]
			if u <= th {
				break
			}
		}
	}
	c.place(c.pending)

	// 3. Power off hosts that are already empty.
	k := 0
	for _, id := range c.on {
		if cl.PMs[id].NumVMs() == 0 && c.B.PowerOff(int(id)) == nil {
			continue
		}
		c.on[k] = id
		k++
	}
	c.on = c.on[:k]

	// 4. Underload consolidation: repeatedly try to fully evacuate the
	// least-utilised active host. The loop is bounded by the host count:
	// each successful pass powers one host off.
	for iter := 0; iter < len(cl.PMs); iter++ {
		src := c.leastUtilisedEvacuable()
		if src == nil {
			break
		}
		vms := c.vmsOf(src)
		if !c.planPlacement(vms, src.ID) {
			break
		}
		// Execute the plan in the stable VMsOf order.
		for i, vm := range vms {
			c.migrate(vm, cl.PMs[c.plan[i]])
		}
		if c.B.TryPowerOffIfEmpty(src.ID) {
			c.removeOn(src.ID)
		}
	}
}

// beginPass sizes the per-PM state on first use and rebuilds the powered
// list, the utilisation cache and the shed flags from the cluster.
func (c *Controller) beginPass() {
	cl := c.B.C
	n := len(cl.PMs)
	if len(c.util) != n {
		c.initHistory(n)
		c.th = make([]float64, n)
		c.util = make([]dc.Vec, n)
		c.shed = make([]bool, n)
		c.extra = make([]dc.Vec, n)
	}
	c.on = c.on[:0]
	for _, pm := range cl.PMs {
		c.shed[pm.ID] = false
		if pm.On() {
			c.on = append(c.on, int32(pm.ID))
			c.util[pm.ID] = cl.CurUtil(pm)
		}
	}
}

// initHistory allocates an empty history ring for n hosts.
func (c *Controller) initHistory(n int) {
	c.hist = make([]float64, n*max(c.HistoryLen, 0))
	c.histN = make([]int, n)
}

// record appends utilisation sample u to host id's history window,
// dropping the oldest sample once the window holds HistoryLen.
func (c *Controller) record(id int, u float64) {
	if c.HistoryLen <= 0 {
		return
	}
	c.hist[id*c.HistoryLen+c.histN[id]%c.HistoryLen] = u
	c.histN[id]++
}

// threshold returns host id's adaptive upper threshold T_u = 1 − s·MAD,
// falling back to the static default while history is short. The result is
// floored so pathological MADs cannot force the threshold to zero. It
// allocates nothing once madBuf has grown to HistoryLen.
func (c *Controller) threshold(id int) float64 {
	n := min(c.histN[id], c.HistoryLen)
	if n < 10 {
		return c.FallbackThreshold
	}
	lo := id * c.HistoryLen
	c.madBuf = append(c.madBuf[:0], c.hist[lo:lo+n]...)
	t := 1 - c.Safety*mad(c.madBuf)
	if t < 0.4 {
		t = 0.4
	}
	if t > 1 {
		t = 1
	}
	return t
}

// mad returns the Median Absolute Deviation of xs. It overwrites xs with
// the sorted absolute deviations.
func mad(xs []float64) float64 {
	m := median(xs)
	for i, x := range xs {
		d := x - m
		if d < 0 {
			d = -d
		}
		xs[i] = d
	}
	return median(xs)
}

// median returns the median of xs, sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// vmsOf returns pm's VMs in ascending ID order in a buffer reused by the
// next call.
func (c *Controller) vmsOf(pm *dc.PM) []*dc.VM {
	c.ids = pm.AppendVMIDs(c.ids[:0])
	c.vms = c.vms[:0]
	for _, id := range c.ids {
		c.vms = append(c.vms, c.B.C.VMs[id])
	}
	return c.vms
}

// migrate moves vm to dst and refreshes the utilisation cache of both
// endpoints.
func (c *Controller) migrate(vm *dc.VM, dst *dc.PM) {
	cl := c.B.C
	src := cl.PMs[vm.Host()]
	_ = cl.Migrate(vm, dst)
	c.util[src.ID] = cl.CurUtil(src)
	c.util[dst.ID] = cl.CurUtil(dst)
}

// place runs Power-Aware Best Fit Decreasing over the pending VMs: VMs in
// decreasing current CPU demand, each to the active host with the least
// power increase (ties: highest resulting utilisation) that keeps CPU at or
// below its threshold and memory within capacity. When no active host fits,
// an off host is powered on — the centralized controller, unlike the
// distributed protocols, can reactivate machines.
func (c *Controller) place(pending []*dc.VM) {
	slices.SortFunc(pending, func(a, b *dc.VM) int {
		return cmp.Compare(b.CurAbs()[dc.CPU], a.CurAbs()[dc.CPU])
	})
	for _, vm := range pending {
		dst := c.bestFit(vm)
		if dst == nil {
			dst = c.powerOnOne()
		}
		if dst == nil || dst.ID == vm.Host() {
			continue
		}
		c.migrate(vm, dst)
	}
}

// planPlacement computes destinations for all vms into c.plan (indexed like
// vms) without performing the migrations, so full-evacuation attempts are
// atomic. It accounts for the capacity consumed by earlier VMs in the same
// plan and never places on host exclude. It reports whether every VM found
// a host.
func (c *Controller) planPlacement(vms []*dc.VM, exclude int) bool {
	cl := c.B.C
	c.order = c.order[:0]
	for i := range vms {
		c.order = append(c.order, int32(i))
	}
	slices.SortFunc(c.order, func(a, b int32) int {
		return cmp.Compare(vms[b].CurAbs()[dc.CPU], vms[a].CurAbs()[dc.CPU])
	})
	c.plan = slices.Grow(c.plan[:0], len(vms))[:len(vms)]
	ok := true
	for _, i := range c.order {
		vm := vms[i]
		host, abs := vm.Host(), vm.CurAbs()
		best := int32(-1)
		var bestU float64
		var capKey, d dc.Vec // d == abs.Div(capKey), also for the zero key
		for _, id := range c.on {
			if int(id) == exclude || int(id) == host {
				continue
			}
			pm := cl.PMs[id]
			if pm.Spec.Capacity != capKey {
				capKey = pm.Spec.Capacity
				d = abs.Div(capKey)
			}
			u := c.util[id]
			if e := c.extra[id]; e != (dc.Vec{}) {
				u = u.Add(e.Div(pm.Spec.Capacity))
			}
			after := u.Add(d)
			if after[dc.CPU] > c.th[id] || after[dc.Mem] > 1 {
				continue
			}
			if best < 0 || after[dc.CPU] > bestU {
				best, bestU = id, after[dc.CPU]
			}
		}
		if best < 0 {
			ok = false
			break
		}
		c.plan[i] = best
		if c.extra[best] == (dc.Vec{}) {
			c.touched = append(c.touched, best)
		}
		c.extra[best] = c.extra[best].Add(abs)
	}
	for _, id := range c.touched {
		c.extra[id] = dc.Vec{}
	}
	c.touched = c.touched[:0]
	return ok
}

// bestFit returns the powered host that can take vm with the least power
// increase, preferring the fullest feasible host. Hosts shed this pass are
// not candidates.
func (c *Controller) bestFit(vm *dc.VM) *dc.PM {
	cl := c.B.C
	host, abs := vm.Host(), vm.CurAbs()
	var best *dc.PM
	var bestPower, bestU float64
	var capKey, d dc.Vec // d == abs.Div(capKey), also for the zero key
	for _, id := range c.on {
		if c.shed[id] || int(id) == host {
			continue
		}
		pm := cl.PMs[id]
		if pm.Spec.Capacity != capKey {
			capKey = pm.Spec.Capacity
			d = abs.Div(capKey)
		}
		u := c.util[id]
		after := u.Add(d)
		if after[dc.CPU] > c.th[id] || after[dc.Mem] > 1 {
			continue
		}
		dPower := (pm.Spec.PowerMaxW - pm.Spec.PowerIdleW) * (after[dc.CPU] - u[dc.CPU])
		if best == nil || dPower < bestPower || (dPower == bestPower && after[dc.CPU] > bestU) {
			best, bestPower, bestU = pm, dPower, after[dc.CPU]
		}
	}
	return best
}

// powerOnOne reactivates the lowest-numbered off host, or returns nil when
// every host is already on. That host is the first gap in the ascending
// powered list.
func (c *Controller) powerOnOne() *dc.PM {
	cl := c.B.C
	i := 0
	for i < len(c.on) && int(c.on[i]) == i {
		i++
	}
	if i == len(cl.PMs) {
		return nil
	}
	c.B.PowerOn(i)
	c.on = slices.Insert(c.on, i, int32(i))
	pm := cl.PMs[i]
	c.util[i] = cl.CurUtil(pm)
	c.th[i] = c.threshold(i)
	return pm
}

// removeOn drops host id from the powered list.
func (c *Controller) removeOn(id int) {
	if i, found := slices.BinarySearch(c.on, int32(id)); found {
		c.on = slices.Delete(c.on, i, i+1)
	}
}

// leastUtilisedEvacuable returns the active host with the lowest CPU
// utilisation that hosts at least one VM and was not shed this pass, or nil
// when none qualifies.
func (c *Controller) leastUtilisedEvacuable() *dc.PM {
	cl := c.B.C
	var best *dc.PM
	var bestU float64
	for _, id := range c.on {
		pm := cl.PMs[id]
		if c.shed[id] || pm.NumVMs() == 0 {
			continue
		}
		u := c.util[id][dc.CPU]
		if u > c.th[id] {
			continue
		}
		if best == nil || u < bestU {
			best, bestU = pm, u
		}
	}
	return best
}
