// Package bfd provides the Best-Fit-Decreasing oracle packing used as the
// SLA-violation-free baseline in Figure 6: given the VMs' demand at one
// round, it computes how few PMs a (centralized, omniscient, migration-free)
// packer would need without saturating any resource.
package bfd

import (
	"sort"

	"github.com/glap-sim/glap/internal/dc"
)

// MinActivePMs packs the current demand of every VM present in the cluster
// into bins of the cluster's PM capacity with Best Fit Decreasing
// (decreasing CPU demand; best fit = the feasible bin with the least
// remaining CPU) and returns the bin count. VMs that have departed or not
// yet arrived are not packed: they keep a stale demand (their last sample,
// or their round-0 seed) that no machine has to serve. A headroom of zero
// packs to full capacity; the paper's baseline packs "without producing any
// SLA violation", i.e. strictly below saturation, which a tiny positive
// headroom expresses.
func MinActivePMs(c *dc.Cluster, headroom float64) int {
	demands := make([]dc.Vec, 0, len(c.VMs))
	for _, vm := range c.VMs {
		if vm.Present() {
			demands = append(demands, vm.CurAbs())
		}
	}
	if len(demands) == 0 {
		return 0
	}
	// The oracle packs into bins of the first PM's capacity; on
	// heterogeneous clusters it is therefore a G5-only packing bound, which
	// keeps the baseline conservative (weaker machines only add capacity).
	capVec := c.PMs[0].Spec.Capacity
	limit := dc.Vec{}
	for r := 0; r < dc.NumResources; r++ {
		limit[r] = capVec[r] * (1 - headroom)
	}

	sort.Slice(demands, func(i, j int) bool {
		return demands[i][dc.CPU] > demands[j][dc.CPU]
	})

	var bins []dc.Vec // accumulated load per bin
	for _, d := range demands {
		best := -1
		bestRemaining := 0.0
		for i, load := range bins {
			after := load.Add(d)
			if !after.FitsWithin(limit) {
				continue
			}
			remaining := limit[dc.CPU] - after[dc.CPU]
			if best < 0 || remaining < bestRemaining {
				best, bestRemaining = i, remaining
			}
		}
		if best < 0 {
			bins = append(bins, d)
		} else {
			bins[best] = bins[best].Add(d)
		}
	}
	return len(bins)
}
