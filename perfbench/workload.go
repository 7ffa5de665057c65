package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/baselines/bfd"
	"github.com/glap-sim/glap/internal/baselines/pabfd"
	"github.com/glap-sim/glap/internal/cyclon"
	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/trace"
)

// consolidationRounds is the paper's evaluation length: 720 two-minute
// rounds (24 h).
const consolidationRounds = 720

// workload is one benchmark workload: a cell of the paper's grid and the
// policy stack run on it, always with the default glapsim.Experiment
// options (auto workers, F64, pair sharding off, quiescence skipping off).
type workload struct {
	name       string
	pms, ratio int
	policy     glapsim.Policy
	// pretrain runs GLAP pre-training (Algorithms 1 and 2) in every
	// replication; checkpoint drives GLAP from the committed Q store.
	pretrain, checkpoint bool
}

// workloads are documented in README.md, with the layers each one stresses.
var workloads = []workload{
	{name: "pretrain-500x2", pms: 500, ratio: 2, policy: glapsim.PolicyGLAP, pretrain: true},
	{name: "consolidate-2000x4", pms: 2000, ratio: 4, policy: glapsim.PolicyGLAP, checkpoint: true},
	{name: "pabfd-2000x4", pms: 2000, ratio: 4, policy: glapsim.PolicyPABFD},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// experiment is the glapsim.Experiment the workload reproduces at seed.
func (w workload) experiment(seed uint64, tables *glap.NodeTables) glapsim.Experiment {
	return glapsim.Experiment{
		PMs: w.pms, Ratio: w.ratio, Rounds: consolidationRounds, Seed: seed,
		Policy: w.policy, PretrainedTables: tables,
	}
}

// Purpose tags of glapsim's seed derivation (DESIGN.md, "Seed derivation").
// The fidelity check compares every assembly against glapsim.Run, so a
// drift between this copy and the facade shows as a failed operation.
const (
	seedTrace     = 1
	seedPlacement = 2
	seedPretrain  = 3
	seedEngine    = 4
)

func deriveSeed(seed, purpose uint64) uint64 {
	return sim.NewRNG(seed).Derive(purpose).Uint64()
}

// mode selects how much of a replication runs.
type mode int

const (
	setupOnly mode = iota // build the stack, run nothing
	untraced              // the end-to-end measurement
	traced                // the same run with layer markers installed
)

// outcome is everything one replication measured.
type outcome struct {
	setupS, pretrainS, consolidateS, totalS float64
	livePeak                                uint64
	ctr                                     counters // summed over the timed intervals

	hash       string
	activePMs  int
	bfdPMs     int
	migrations int64
	slav       float64
	energyKWh  float64
	merge      qlearn.MergeStats
	valueBytes int64

	// Set-up split, taken in every mode (a handful of clock reads).
	traceOpenS, dcBuildS, decodeS float64

	// Traced replications only.
	tr        *tracer
	finalizeS float64
	// closure is the traced phases' wall time minus the time charged to
	// layers; it must stay within closureTolerance.
	closure time.Duration
}

// closureTolerance bounds the unattributed time of a traced replication:
// only the clock reads between the last layer stamp and the phase timer's
// end are uncharged.
const closureTolerance = time.Millisecond

// replicate runs one replication of w at seed, assembled from the same
// calls glapsim.Run makes, with a forced GC and a live-heap reading at
// every phase boundary outside the timed intervals.
func (w workload) replicate(seed uint64, md mode) (*outcome, error) {
	o := &outcome{}
	m := newMeter()
	var tr *tracer
	if md == traced {
		tr = &tracer{}
		o.tr = tr
	}
	m.boundary()

	// Set-up, first part: the trace source plus the pre-training cluster
	// or the checkpointed Q store.
	t0 := m.begin()
	src, err := trace.GenerateStreaming(trace.DefaultGenConfig(w.pms*w.ratio, consolidationRounds, deriveSeed(seed, seedTrace)))
	if err != nil {
		return nil, err
	}
	o.traceOpenS = time.Since(t0).Seconds()
	var pre *dc.Cluster
	if w.pretrain {
		t := time.Now()
		if pre, err = buildCluster(w.pms, src, seed); err != nil {
			return nil, err
		}
		o.dcBuildS += time.Since(t).Seconds()
	}
	var tables *glap.NodeTables
	if w.checkpoint {
		t := time.Now()
		if tables, err = loadCheckpoint(); err != nil {
			return nil, err
		}
		o.decodeS = time.Since(t).Seconds()
	}
	o.setupS = m.end(t0)
	m.boundary()

	var res *glap.PretrainResult
	if w.pretrain && md != setupOnly {
		qlearn.ResetMergeStats()
		t1 := m.begin()
		if md == traced {
			res = tracedPretrain(pre, seed, tr, t1)
		} else if res, err = glap.Pretrain(glap.Config{}, pre, deriveSeed(seed, seedPretrain), glap.PretrainOptions{}); err != nil {
			return nil, err
		}
		if tables, err = glap.SharedTables(res); err != nil {
			return nil, err
		}
		tr.mark(layerOther)
		o.pretrainS = m.end(t1)
		o.merge = qlearn.ReadMergeStats()
		m.boundary()
		o.valueBytes = valueBytes(res.Tables...)
	} else if tables != nil {
		o.valueBytes = valueBytes(tables)
	}

	// Set-up, second part: the consolidation cluster, engine and stack.
	t2 := m.begin()
	t := time.Now()
	c, err := buildCluster(w.pms, src, seed)
	if err != nil {
		return nil, err
	}
	o.dcBuildS += time.Since(t).Seconds()
	e := sim.NewEngine(w.pms, deriveSeed(seed, seedEngine))
	tr.roundStart(e)
	b, err := policy.Bind(e, c)
	if err != nil {
		return nil, err
	}
	tr.before(e, layerAdvance)
	var ctl *pabfd.Controller
	switch w.policy {
	case glapsim.PolicyGLAP:
		// The first marker closes the engine's node-order shuffle.
		tr.register(e, layerOther)
		e.Register(cyclon.New(0, 0))
		tr.register(e, layerShuffle)
		shared := tables
		e.Register(&glap.ConsolidateProtocol{B: b, Tables: func(*sim.Engine, *sim.Node) *glap.NodeTables { return shared }})
		tr.register(e, layerConsolidate)
	case glapsim.PolicyPABFD:
		ctl = pabfd.Install(e, b)
		tr.before(e, layerPABFD)
	default:
		return nil, fmt.Errorf("perfbench: no assembly for policy %q", w.policy)
	}
	tr.after(e, layerOther)
	series := metrics.Attach(e, c, 0)
	tr.roundEnd(e, layerSample)
	o.setupS += m.end(t2)
	if md == setupOnly {
		runtime.KeepAlive(series)
		return o, nil
	}
	m.boundary()

	// Consolidation: the 720 rounds plus the paper's result metrics.
	t3 := m.begin()
	tr.start(t3, func(l layer, r int) bool {
		switch l {
		case layerShuffle, layerConsolidate:
			return w.policy == glapsim.PolicyGLAP
		case layerPABFD:
			return ctl != nil && r%ctl.Period == 0
		case layerLearn, layerAgg:
			return false
		}
		return true
	})
	e.RunRounds(consolidationRounds)
	tr.mark(layerOther)
	series.Finalize(c)
	energy := metrics.TotalEnergyKWh(c)
	bfdPMs := bfd.MinActivePMs(c, 1e-6)
	if tr != nil {
		o.finalizeS = time.Since(tr.last).Seconds()
	}
	o.consolidateS = m.end(t3)
	m.boundary()
	runtime.KeepAlive(res)

	o.totalS = o.setupS + o.pretrainS + o.consolidateS
	o.livePeak = m.livePeak
	o.ctr = m.sum
	if tr != nil {
		wall := time.Duration((o.pretrainS + o.consolidateS) * 1e9)
		o.closure = wall - tr.sum() - time.Duration(o.finalizeS*1e9)
	}
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("perfbench: cluster invariants after consolidation: %w", err)
	}
	if pre != nil {
		if err := pre.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("perfbench: cluster invariants after pre-training: %w", err)
		}
	}
	o.hash = resultHash(series, energy, bfdPMs)
	last, _ := series.Last()
	o.activePMs, o.bfdPMs = last.ActivePMs, bfdPMs
	o.migrations, o.slav, o.energyKWh = c.Migrations, series.SLAV, energy
	return o, nil
}

// buildCluster places the workload on a fresh cluster exactly as glapsim
// does; two calls with one seed give identically placed clusters.
func buildCluster(pms int, src *trace.Set, seed uint64) (*dc.Cluster, error) {
	c, err := dc.New(dc.Config{PMs: pms, Workload: src})
	if err != nil {
		return nil, err
	}
	c.PlaceRandom(sim.NewRNG(deriveSeed(seed, seedPlacement)).Intn)
	return c, nil
}

// tracedPretrain is glap.Pretrain with layer markers: the same engine, seed,
// binding, protocols and windows for the default configuration, so its
// tables (and the run they drive) are identical, which the inertness check
// verifies on every traced replication.
func tracedPretrain(cl *dc.Cluster, seed uint64, tr *tracer, start time.Time) *glap.PretrainResult {
	cfg := glap.DefaultConfig()
	e := sim.NewEngine(len(cl.PMs), deriveSeed(seed, seedPretrain))
	tr.roundStart(e)
	b, err := policy.Bind(e, cl)
	if err != nil {
		panic(err) // the cluster was built for this engine's node count
	}
	tr.before(e, layerAdvance)
	tr.register(e, layerOther)
	e.Register(cyclon.New(0, 0))
	tr.register(e, layerShuffle)
	e.RegisterWindow(&glap.LearnProtocol{Cfg: cfg, B: b}, 1, 0, cfg.LearnRounds-1)
	tr.register(e, layerLearn)
	e.RegisterWindow(&glap.AggProtocol{}, 1, cfg.LearnRounds, cfg.LearnRounds+cfg.AggRounds-1)
	tr.register(e, layerAgg)
	tr.roundEnd(e, layerOther)
	tr.start(start, func(l layer, r int) bool {
		switch l {
		case layerLearn:
			return r < cfg.LearnRounds
		case layerAgg:
			return r >= cfg.LearnRounds
		case layerAdvance, layerShuffle, layerOther:
			return true
		}
		return false
	})
	e.RunRounds(cfg.LearnRounds + cfg.AggRounds)
	res := &glap.PretrainResult{LearnRounds: cfg.LearnRounds, AggRounds: cfg.AggRounds, Tables: make([]*glap.NodeTables, e.N())}
	for i, n := range e.Nodes() {
		res.Tables[i] = glap.TablesOf(e, n)
	}
	return res
}

// valueBytes is qlearn.Footprint's value-array byte count over the tables.
func valueBytes(stores ...*glap.NodeTables) int64 {
	qts := make([]*qlearn.Table, 0, 2*len(stores))
	for _, st := range stores {
		if st != nil {
			qts = append(qts, st.Out, st.In)
		}
	}
	_, _, vb, _ := qlearn.Footprint(qts)
	return vb
}

// resultHash fingerprints every per-round sample and the final SLA, energy
// and BFD-oracle figures bit-exactly.
func resultHash(s *metrics.Series, energyKWh float64, bfdPMs int) string {
	h := sha256.New()
	for _, sm := range s.Samples {
		fmt.Fprintf(h, "%d,%d,%d,%d,%x\n", sm.Round, sm.ActivePMs, sm.OverloadedPMs, sm.Migrations, math.Float64bits(sm.MigrationEnergyJ))
	}
	fmt.Fprintf(h, "%x,%x,%x,%x,%d\n", math.Float64bits(s.SLAVO), math.Float64bits(s.SLALM),
		math.Float64bits(s.SLAV), math.Float64bits(energyKWh), bfdPMs)
	return hex.EncodeToString(h.Sum(nil))
}

// reference runs glapsim.Run on the workload's Experiment and returns its
// result hash: the fidelity check's ground truth.
func (w workload) reference(seed uint64) (string, error) {
	var tables *glap.NodeTables
	if w.checkpoint {
		var err error
		if tables, err = loadCheckpoint(); err != nil {
			return "", err
		}
	}
	res, err := glapsim.Run(w.experiment(seed, tables))
	if err != nil {
		return "", err
	}
	return resultHash(res.Series, metrics.TotalEnergyKWh(res.Cluster), res.BFDBaseline), nil
}
