package glap

import (
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
)

// LearnProtocolName registers the Gossip Learning component.
const LearnProtocolName = "glap-learn"

// NodeTables is a PM's Q-value store: the φ^out and φ^in tables plus a flag
// recording whether this node ran local training (PMs above the utilisation
// threshold end the learning phase without any Q-values and only obtain them
// through aggregation).
type NodeTables struct {
	Out *qlearn.Table
	In  *qlearn.Table
	// Trained is set once the node executed at least one local training
	// round.
	Trained bool

	// ioVec is the node's reusable dense φ^io buffer, (re)filled by IOVec.
	// Convergence measurement samples it every measured round, so the
	// buffer is kept across samples instead of being rebuilt each time.
	ioVec []float64

	// scratch holds the node's reusable training buffers. Keeping them in
	// the per-node store (rather than on the protocol) preserves the
	// ParallelRound contract: a training round touches nothing but state
	// owned by its node.
	scratch learnScratch
}

// Clone deep-copies the store. The scratch buffers (IOVec, training
// scratch) are not carried over; the clone refills its own on first use.
func (t *NodeTables) Clone() *NodeTables {
	return &NodeTables{Out: t.Out.Clone(), In: t.In.Clone(), Trained: t.Trained}
}

// NewNodeTables builds an empty, untrained Q store under cfg's learning
// parameters — the state a cold-restarted PM comes back with after a crash
// wiped its tables.
func NewNodeTables(cfg Config) *NodeTables {
	cfg = cfg.withDefaults()
	return &NodeTables{
		Out: qlearn.New(cfg.Alpha, cfg.Gamma),
		In:  qlearn.New(cfg.Alpha, cfg.Gamma),
	}
}

// ioSpan is the per-dimension size of the dense φ^io layout: the calibrated
// level space (NumLevels² packed states and actions).
const ioSpan = NumLevels * NumLevels

// IOVecLen is the length of the dense φ^io vector: the φ^out cells over the
// full calibrated state×action space followed by the φ^in cells.
const IOVecLen = 2 * ioSpan * ioSpan

// IOVec flattens both tables into one dense vector (the paper's
// φ^io = φ^in ∪ φ^out) aligned over the calibrated space, reusing the
// node's buffer. Out-cells occupy the first half and in-cells the second,
// so the two tables never collide. All NodeTables share one layout, so
// vectors from different nodes feed straight into aligned-slice cosine
// similarity.
func (t *NodeTables) IOVec() []float64 {
	if t.ioVec == nil {
		t.ioVec = make([]float64, IOVecLen)
	}
	t.Out.FillDense(t.ioVec[:ioSpan*ioSpan], ioSpan, ioSpan)
	t.In.FillDense(t.ioVec[ioSpan*ioSpan:], ioSpan, ioSpan)
	return t.ioVec
}

// kernelProfile is one collected VM profile in the fused kernel's
// representation: the demand fractions pre-multiplied by the VM's capacity
// (the only form the aggregation ever needs) and the VM's calibrated action
// under both demand signals. Everything trainOnce touches per multiset
// element is precomputed here once per round.
type kernelProfile struct {
	// wAvg and wCur are the weighted demand vectors avg·cap and cur·cap.
	wAvg, wCur dc.Vec
	// actAvg and actCur are the VM's calibrated migration action from
	// average and current demand respectively (the CurrentDemandOnly
	// ablation switches between them).
	actAvg, actCur qlearn.Action
}

// learnScratch is a node's reusable training state. The duplicated profile
// multiset of Algorithm 1 is represented as the base profiles plus a total
// repeat count: multiset element k is base[k mod len(base)], because
// duplication appends the base profiles cyclically. Duplication is thereby
// O(1) space bookkeeping instead of slice inflation (the reference kernel
// materialises up to 64× the base set).
type learnScratch struct {
	// ids is the VM-id collection buffer fed to dc.PM.AppendVMIDs.
	ids []int
	// base holds the collected profiles (own VMs then peer VMs, each in
	// ascending VM-ID order — the same order the reference kernel collects).
	base []kernelProfile
	// total is the multiset size after duplication (≥ len(base)).
	total int
	// totAvg and totCur are the duplicated multiset's summed weighted demand
	// vectors, precomputed once per Round (they are constant across training
	// iterations and partition-retry attempts). trainOnce folds only the
	// sender side of each partition and derives the recipient sums as
	// totals − sender, halving the FP work of the partition loop.
	totAvg, totCur dc.Vec
	// sender is trainOnce's sender-partition buffer: multiset indices, kept
	// across iterations and rounds so steady-state training allocates
	// nothing.
	sender []int32
}

// appendKernelProfile collects vm into the scratch base set.
func appendKernelProfile(dst []kernelProfile, vm *dc.VM) []kernelProfile {
	cur, avg, cp := vm.CurDemand(), vm.AvgDemand(), vm.Spec.Capacity
	var k kernelProfile
	for r := 0; r < dc.NumResources; r++ {
		k.wAvg[r] = avg[r] * cp[r]
		k.wCur[r] = cur[r] * cp[r]
	}
	k.actAvg = LevelsOf(avg).Action()
	k.actCur = LevelsOf(cur).Action()
	return append(dst, k)
}

// LearnProtocol is Algorithm 1: within each learning round, every PM whose
// load permits collects the VM profiles of one random neighbour, merges them
// with its own, duplicates them to cover heavily loaded states, and then
// simulates k sender/recipient migrations, updating φ^out and φ^in with
// Equation 1.
type LearnProtocol struct {
	Cfg Config
	B   *policy.Binding

	rng sim.BoundNodeRNG
}

// Name implements sim.Protocol.
func (l *LearnProtocol) Name() string { return LearnProtocolName }

// Parallelizable implements sim.ParallelRound: Round only writes the active
// node's own Q store (including its node-local training scratch), its own
// cyclon view, and its own derived random stream; peers and the cluster are
// read-only. That makes the learning phase — the paper's "700 more rounds"
// of pre-training — safe to fan out across the engine's workers with
// byte-identical results for any worker count.
func (l *LearnProtocol) Parallelizable() bool { return true }

// Setup creates the node's empty Q store.
func (l *LearnProtocol) Setup(e *sim.Engine, n *sim.Node) any {
	return &NodeTables{
		Out: qlearn.New(l.Cfg.Alpha, l.Cfg.Gamma),
		In:  qlearn.New(l.Cfg.Alpha, l.Cfg.Gamma),
	}
}

// TablesOf returns node n's Q store.
func TablesOf(e *sim.Engine, n *sim.Node) *NodeTables {
	return e.State(LearnProtocolName, n).(*NodeTables)
}

// Round implements one local training round (Algorithm 1 body). Each node
// draws from its own derived stream — a prerequisite of the ParallelRound
// contract, and what keeps training independent of node visit order.
//
// The round is allocation-free in steady state: profile collection refills
// the node's scratch buffers instead of rebuilding slices from nil,
// duplication computes a repeat count instead of materialising copies, and
// the training iterations run the fused single-pass kernel below.
func (l *LearnProtocol) Round(e *sim.Engine, n *sim.Node, round int) {
	rng := l.rng.For(e, n.ID, 0x61ea51)
	c := l.B.C
	pm := l.B.PM(n)
	// Only lightly loaded PMs train, to avoid impacting collocated VMs.
	if c.AvgUtil(pm)[dc.CPU] > l.Cfg.LearnUtilThreshold {
		return
	}

	st := TablesOf(e, n)
	sc := &st.scratch

	// Collect profiles: local VMs plus the VMs of one random neighbour,
	// each set in ascending VM-ID order.
	sc.base = sc.base[:0]
	sc.ids = pm.AppendVMIDs(sc.ids[:0])
	for _, id := range sc.ids {
		sc.base = appendKernelProfile(sc.base, c.VMs[id])
	}
	if peer := cyclon.SelectPeer(e, n, rng); peer >= 0 {
		sc.ids = c.PMs[peer].AppendVMIDs(sc.ids[:0])
		for _, id := range sc.ids {
			sc.base = appendKernelProfile(sc.base, c.VMs[id])
		}
	}
	if len(sc.base) == 0 {
		return
	}

	// Duplicate profiles until the aggregate average CPU demand reaches
	// DuplicationTargetUtil of PM capacity so that high and overloaded
	// states are visited during training. Only the multiset size is
	// computed; elements are addressed as base[k mod len(base)].
	sc.total = coverCount(sc.base, pm.Spec.Capacity[dc.CPU], l.Cfg.DuplicationTargetUtil)
	sc.totAvg, sc.totCur = multisetTotals(sc.base, sc.total)

	for it := 0; it < l.Cfg.LearnIterations; it++ {
		l.trainOnce(rng, st, sc, pm.Spec.Capacity)
	}
	st.Trained = true
}

// coverCount returns the size of the duplicated profile multiset: the base
// profiles followed by cyclic repeats until the running aggregate average
// CPU demand reaches target × capacity, capped at 64× the base size. The
// running sum replays the reference duplicateToCover's accumulation order
// exactly (float addition is order-sensitive), so the count matches the
// reference kernel's materialised length element-for-element.
func coverCount(base []kernelProfile, capCPU, target float64) int {
	sum := 0.0
	for i := range base {
		sum += base[i].wAvg[dc.CPU]
	}
	if sum <= 0 {
		return len(base)
	}
	n, limit, maxN := len(base), target*capCPU, 64*len(base)
	for sum < limit && n < maxN {
		for i := 0; i < len(base) && sum < limit; i++ {
			sum += base[i].wAvg[dc.CPU]
			n++
		}
	}
	return n
}

// multisetTotals returns the duplicated multiset's summed weighted average-
// and current-demand vectors. Multiset element k is base[k mod len(base)], so
// the totals are (total / len(base)) full cycles of the base sums plus the
// prefix of the first total mod len(base) elements — one pass over base
// regardless of the duplication factor (up to 64×).
func multisetTotals(base []kernelProfile, total int) (avg, cur dc.Vec) {
	nb := len(base)
	rem := total % nb
	var bAvg, bCur, pAvg, pCur dc.Vec
	for i := range base {
		if i == rem {
			pAvg, pCur = bAvg, bCur
		}
		for r := 0; r < dc.NumResources; r++ {
			bAvg[r] += base[i].wAvg[r]
			bCur[r] += base[i].wCur[r]
		}
	}
	full := float64(total / nb)
	for r := 0; r < dc.NumResources; r++ {
		avg[r] = full*bAvg[r] + pAvg[r]
		cur[r] = full*bCur[r] + pCur[r]
	}
	return avg, cur
}

// trainOnce performs one simulated migration: partition the profile multiset
// into a virtual sender and a virtual recipient, move one random sender VM,
// and apply updateOUT / updateIN per Equation 1. Pre-action states use
// average demand; post-action states use current demand (Figure 3).
//
// Partition and aggregation are fused into a single pass: every multiset
// element draws its Bernoulli coin (the same sequence the reference kernel
// draws) and, when it lands sender-side, immediately folds its weighted
// average- and current-demand vectors into the sender accumulators. The
// recipient partition is never folded at all: its sums are derived as the
// precomputed multiset totals minus the sender sums, halving the FP work of
// the partition loop (the derived sums differ from a direct fold only at ulp
// scale, which level quantisation absorbs — see DESIGN.md §7). The Bernoulli
// threshold is converted once per trainOnce and the k-loop runs the one-shift
// one-compare form. Post-action states derive incrementally: sAfter is the
// sender's current-demand sum minus the evicted VM, tAfter the recipient's
// sum plus it. Only the sender indices are materialised (the eviction pick
// needs them); the recipient partition exists solely as its derived sums.
func (l *LearnProtocol) trainOnce(rng *sim.RNG, st *NodeTables, sc *learnScratch, pmCap dc.Vec) {
	base := sc.base
	nb := len(base)
	// Random partition with a freshly drawn split bias per iteration so
	// the virtual recipient's pre-state sweeps the whole load range — from
	// nearly empty to beyond capacity — and the high states that matter
	// for rejection decisions are actually visited during training.
	pSender := 0.15 + 0.7*rng.Float64()
	thresh := sim.Thresh53(pSender)
	sender := sc.sender[:cap(sc.sender)]
	if len(sender) < sc.total {
		// Grow once to the high-water multiset size so the k-loop writes by
		// index instead of appending (no per-element capacity check).
		sender = make([]int32, sc.total)
	}
	sc.sender = sender // keep the grown buffer for the next iteration
	cnt := 0
	var sAvg, sCur dc.Vec
	for attempt := 0; attempt < 8; attempt++ {
		cnt = 0
		sAvg, sCur = dc.Vec{}, dc.Vec{}
		// Walk the multiset cycle by cycle: the inner loop's bound is the
		// base length (or the final partial cycle), so element addressing
		// needs no wrap branch and profiles stream linearly.
		for k := 0; k < sc.total; {
			span := nb
			if rem := sc.total - k; rem < span {
				span = rem
			}
			for j := 0; j < span; j++ {
				if rng.BernoulliThresh(thresh) {
					sender[cnt] = int32(k + j)
					cnt++
					p := &base[j]
					for r := 0; r < dc.NumResources; r++ {
						sAvg[r] += p.wAvg[r]
						sCur[r] += p.wCur[r]
					}
				}
			}
			k += span
		}
		if cnt > 0 {
			break
		}
	}
	if cnt == 0 {
		return
	}
	sender = sender[:cnt]
	tAvg := sc.totAvg.Sub(sAvg)
	tCur := sc.totCur.Sub(sCur)
	// An all-sender draw leaves the recipient partition empty; training
	// proceeds regardless — an empty virtual recipient is the legitimate
	// (Low, Low) pre-state of an idle PM, and φ^in needs those transitions
	// (see TestTrainOncePartitionRetry for the characterisation).
	pick := int(sender[rng.Intn(len(sender))])
	p := &base[pick%nb]
	useAvg := !l.Cfg.CurrentDemandOnly
	action := p.actAvg
	if !useAvg {
		action = p.actCur
	}

	// updateOUT: the sender's transition after evicting the picked VM.
	sBefore := sAvg
	if !useAvg {
		sBefore = sCur
	}
	l.updateOut(st.Out, stateOfSum(sBefore, pmCap), action, stateOfSum(sCur.Sub(p.wCur), pmCap))

	// updateIN: the recipient's transition after accepting it.
	tBefore := tAvg
	if !useAvg {
		tBefore = tCur
	}
	l.updateIn(st.In, stateOfSum(tBefore, pmCap), action, stateOfSum(tCur.Add(p.wCur), pmCap))
}

// stateOfSum calibrates an aggregate absolute demand vector against a PM
// capacity.
func stateOfSum(sum, cap dc.Vec) qlearn.State {
	return LevelsOf(sum.Div(cap)).State()
}

func (l *LearnProtocol) updateOut(out *qlearn.Table, s qlearn.State, a qlearn.Action, next qlearn.State) {
	r := l.Cfg.RewardOut.Of(LevelsOfState(next))
	out.Update(s, a, r, next)
}

func (l *LearnProtocol) updateIn(in *qlearn.Table, s qlearn.State, a qlearn.Action, next qlearn.State) {
	r := l.Cfg.RewardIn.Of(LevelsOfState(next))
	in.Update(s, a, r, next)
}
