package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/glap-sim/glap/internal/dc"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
	"github.com/glap-sim/glap/internal/policy"
	"github.com/glap-sim/glap/internal/qlearn"
	"github.com/glap-sim/glap/internal/sim"
	"github.com/glap-sim/glap/internal/stats"
	"github.com/glap-sim/glap/internal/trace"
)

// The `-exp scale` mode measures per-stage wall time of a GLAP run across
// cluster sizes and worker counts, seeding the repo's perf trajectory. The
// workload is deliberately reduced (short pre-training, short consolidation)
// so the full grid completes in minutes; the stage structure — pretrain /
// consolidation / metrics — matches the real experiment exactly.
const (
	scaleRatio       = 2
	scaleLearnRounds = 40
	scaleAggRounds   = 20
	scaleConsRounds  = 40

	// scaleTightGCMinPMs is the smallest cluster size that runs under the
	// pinned GOGC=10 discipline (see runScale).
	scaleTightGCMinPMs = 20000
)

// scaleSizes spans the paper's evaluation range (≤ 2000 PMs) up to 20k PMs,
// a tenfold margin above it. The struct-of-arrays cluster core, the
// streaming trace source, and the compact shared Q-table backing hold
// per-PM state to a few KB, so the largest row stays well within commodity
// memory.
var scaleSizes = []int{500, 1000, 2000, 5000, 20000}

// scaleRow is one grid cell of BENCH_scale.json.
type scaleRow struct {
	PMs     int `json:"pms"`
	VMs     int `json:"vms"`
	Workers int `json:"workers"`

	// The environment is recorded per row (not just in the header) so a
	// committed row can never be mistaken for evidence of parallel speedup
	// when the run was taken on a throttled or single-core host.
	envMeta

	// Precision is the Q-value storage tier the row ran on ("f64"/"f32").
	// F32 rows form their own hash-equivalence class: rounded Q-values
	// legitimately produce a different decision series, which must still be
	// byte-identical across worker counts.
	Precision string `json:"precision"`

	PretrainSec      float64 `json:"pretrain_sec"`
	ConsolidationSec float64 `json:"consolidation_sec"`
	MetricsSec       float64 `json:"metrics_sec"`
	TotalSec         float64 `json:"total_sec"`

	// PretrainLearnSec and PretrainAggSec attribute PretrainSec to its two
	// phases — Algorithm 1's training rounds and Algorithm 2's aggregation
	// rounds (plus result collection) — so a pretrain regression names the
	// loop it lives in without a profiler.
	PretrainLearnSec float64 `json:"pretrain_learn_sec"`
	PretrainAggSec   float64 `json:"pretrain_agg_sec"`

	// MergeFastHits counts the pretrain stage's table merges resolved by a
	// qlearn fast path (pair already sharing a backing, aligned canonical
	// cell sets, equal-content collapse, or set-equal adopt);
	// MergeAlignedHits is the aligned subset — the canonical-interning
	// steady state the pointer-equality path targets (0 on rows whose
	// tables stay under the interning threshold). MergeUnions counts the
	// residual general unions and MergeTotal all merges, so
	// MergeFastHits/MergeTotal is the fast-path rate.
	MergeFastHits    uint64 `json:"merge_fast_hits"`
	MergeAlignedHits uint64 `json:"merge_aligned_hits"`
	MergeUnions      uint64 `json:"merge_unions"`
	MergeTotal       uint64 `json:"merge_total"`

	// PretrainAllocsPerIter and PretrainBytesPerIter are the heap
	// allocations and bytes of the whole pretrain stage divided by the
	// scheduled training iterations (PMs × learn rounds × LearnIterations)
	// — the alloc budget of the paper's hot path. The numerator includes
	// the stage's fixed costs (engine setup, Q-table backings, the
	// aggregation rounds), so the steady-state inner loop is bounded above
	// by — and with the zero-alloc kernel far below — these figures.
	PretrainAllocsPerIter float64 `json:"pretrain_allocs_per_iter"`
	PretrainBytesPerIter  float64 `json:"pretrain_bytes_per_iter"`

	// PretrainSpeedup is this row's pretrain time relative to the same-size
	// workers=1 row (1.0 for the sequential row itself).
	PretrainSpeedup float64 `json:"pretrain_speedup"`

	// ValueBytes is the post-pretrain Q-value storage across every node's
	// tables — capacity of the pooled value arrays, charged 8 B/slot on the
	// F64 tier and 4 B/slot on F32. It is the term of the memory floor the
	// precision tier halves, measured rather than projected.
	ValueBytes int64 `json:"value_bytes"`

	// MergeNsPerPair times one steady-state pairwise merge on the converged
	// tables (COW detach of one endpoint plus a full sets-equal average
	// scan — the shape of every exchange in saturated aggregation gossip).
	MergeNsPerPair float64 `json:"merge_ns_per_pair"`
	// CosineNsPerSample times one φ^io cosine sample over the dense
	// convergence vectors on the row's tier (13122 elements; the F32 tier
	// scans half the bytes).
	CosineNsPerSample float64 `json:"cosine_ns_per_sample"`

	// HeapBytesPeak is the highest live-heap watermark (runtime.MemStats
	// HeapAlloc) observed across the whole cell — build, pretrain,
	// consolidation, metrics — sampled by a background watcher and at every
	// stage boundary. The per-cell runtime.GC() before the baseline read
	// keeps the figure comparable across cells; divided by PMs it is the
	// bytes-per-PM capacity metric tracked in EXPERIMENTS.md.
	HeapBytesPeak uint64 `json:"heap_bytes_peak"`

	// SeriesHash fingerprints the run's full metrics series; equal hashes
	// across worker counts witness the determinism contract.
	SeriesHash string `json:"series_hash"`
}

type scaleReport struct {
	envMeta
	Ratio       int        `json:"ratio"`
	LearnRounds int        `json:"learn_rounds"`
	AggRounds   int        `json:"agg_rounds"`
	ConsRounds  int        `json:"consolidation_rounds"`
	Seed        uint64     `json:"seed"`
	Rows        []scaleRow `json:"rows"`
}

// scaleWorkerList is {1, GOMAXPROCS}, extended with 8 when GOMAXPROCS < 8 so
// the differential rows exercise real multi-goroutine execution (explicit
// counts bypass the shared budget) even on small machines.
func scaleWorkerList() []int {
	ws := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		ws = append(ws, g)
	}
	if runtime.GOMAXPROCS(0) < 8 {
		ws = append(ws, 8)
	}
	return ws
}

// heapWatcher tracks the peak live heap (MemStats.HeapAlloc) over a window.
// A background goroutine samples on a short ticker so peaks inside a long
// stage are not missed; Sample is also called explicitly at stage boundaries
// so short cells with no tick still record every inter-stage watermark.
type heapWatcher struct {
	peak uint64
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

func startHeapWatcher() *heapWatcher {
	hw := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hw.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				hw.Sample()
			case <-hw.stop:
				return
			}
		}
	}()
	return hw
}

func (hw *heapWatcher) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hw.mu.Lock()
	if ms.HeapAlloc > hw.peak {
		hw.peak = ms.HeapAlloc
	}
	hw.mu.Unlock()
}

// Stop takes a final sample, terminates the watcher, and returns the peak.
func (hw *heapWatcher) Stop() uint64 {
	hw.Sample()
	close(hw.stop)
	<-hw.done
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return hw.peak
}

// microSink keeps the micro-benchmark loops below observable.
var microSink float64

// measureMergeNs times one steady-state pairwise merge over clones of the
// converged tables: perturb one cell of a shared-backing endpoint, then
// merge — a copy-on-write detach plus a full sets-equal average scan, the
// dominant shape once aggregation gossip saturates. The clones draw no
// engine randomness, so the measurement never disturbs the row's series.
func measureMergeNs(tables *glap.NodeTables) float64 {
	p, q := tables.Out.Clone(), tables.Out.Clone()
	qlearn.Unify(p, q) // align onto one shared backing first
	const iters = 200
	start := time.Now()
	for i := 0; i < iters; i++ {
		q.Set(1, 2, float64(i))
		qlearn.Unify(p, q)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// measureCosineNs times one dense φ^io cosine sample on the row's tier.
func measureCosineNs(tables *glap.NodeTables, prec qlearn.Precision) float64 {
	const iters = 200
	if prec == qlearn.F32 {
		a := append([]float32(nil), tables.IOVec32()...)
		b := append([]float32(nil), a...)
		b[0]++
		start := time.Now()
		for i := 0; i < iters; i++ {
			microSink += stats.CosineAligned32(a, b)
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	a := append([]float64(nil), tables.IOVec()...)
	b := append([]float64(nil), a...)
	b[0]++
	start := time.Now()
	for i := 0; i < iters; i++ {
		microSink += stats.CosineAligned(a, b)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// runScaleCell executes one full reduced GLAP experiment at the given size,
// worker count and Q-value precision tier, timing each stage.
func runScaleCell(pms, workers int, seed uint64, w *trace.Set, prec qlearn.Precision) (scaleRow, error) {
	row := scaleRow{
		PMs: pms, VMs: pms * scaleRatio, Workers: workers,
		envMeta:   currentEnv(),
		Precision: prec.String(),
	}
	cfg := glap.Config{LearnRounds: scaleLearnRounds, AggRounds: scaleAggRounds, Precision: prec}
	opts := glap.PretrainOptions{Workers: workers}

	build := func() (*dc.Cluster, error) {
		c, err := dc.New(dc.Config{PMs: pms, Workload: w})
		if err != nil {
			return nil, err
		}
		c.Workers = workers
		rng := sim.NewRNG(seed + 1)
		c.PlaceRandom(rng.Intn)
		return c, nil
	}

	// Collect the previous cell's garbage now so its GC debt is not billed
	// to this cell's timings or its heap watermark (large-cell heaps run to
	// hundreds of MB).
	runtime.GC()
	hw := startHeapWatcher()
	pre, err := build()
	if err != nil {
		hw.Stop()
		return row, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	qlearn.ResetMergeStats()
	start := time.Now()
	res, err := glap.Pretrain(cfg, pre, seed+2, opts)
	if err != nil {
		hw.Stop()
		return row, err
	}
	row.PretrainSec = time.Since(start).Seconds()
	row.PretrainLearnSec, row.PretrainAggSec = res.LearnSec, res.AggSec
	ms := qlearn.ReadMergeStats()
	row.MergeFastHits, row.MergeAlignedHits = ms.FastHits(), ms.AlignedIdx
	row.MergeUnions, row.MergeTotal = ms.Unions, ms.Merges
	runtime.ReadMemStats(&msAfter)
	hw.Sample()
	trainIters := float64(pms) * float64(scaleLearnRounds) * float64(glap.DefaultConfig().LearnIterations)
	row.PretrainAllocsPerIter = float64(msAfter.Mallocs-msBefore.Mallocs) / trainIters
	row.PretrainBytesPerIter = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / trainIters

	// Post-pretrain value-storage accounting: every node's converged tables,
	// counted once per distinct backing (COW sharing means far fewer arrays
	// than tables).
	qts := make([]*qlearn.Table, 0, 2*len(res.Tables))
	for _, nt := range res.Tables {
		if nt != nil {
			qts = append(qts, nt.Out, nt.In)
		}
	}
	_, _, valueBytes, _ := qlearn.Footprint(qts)
	row.ValueBytes = valueBytes

	tables, err := glap.SharedTables(res)
	if err != nil {
		hw.Stop()
		return row, err
	}
	run, err := build()
	if err != nil {
		hw.Stop()
		return row, err
	}
	e := sim.NewEngine(pms, seed+3)
	e.Workers = workers
	b, err := policy.Bind(e, run)
	if err != nil {
		hw.Stop()
		return row, err
	}
	glap.InstallConsolidation(e, b, tables, cfg, opts)
	series := metrics.Attach(e, run, 0)
	hw.Sample()
	start = time.Now()
	e.RunRounds(scaleConsRounds)
	row.ConsolidationSec = time.Since(start).Seconds()
	hw.Sample()

	start = time.Now()
	series.Finalize(run)
	energy := metrics.TotalEnergyKWh(run)
	if err := run.CheckInvariants(); err != nil {
		hw.Stop()
		return row, err
	}
	row.MetricsSec = time.Since(start).Seconds()
	row.TotalSec = row.PretrainSec + row.ConsolidationSec + row.MetricsSec
	row.SeriesHash = hashScaleSeries(series, energy)
	// Micro-timings last, so their clone churn never pollutes the stage
	// timings above (the heap watcher is still live, but the clones are two
	// tables against a cluster-sized heap).
	row.MergeNsPerPair = measureMergeNs(tables)
	row.CosineNsPerSample = measureCosineNs(tables, prec)
	row.HeapBytesPeak = hw.Stop()
	return row, nil
}

// hashScaleSeries fingerprints every sample and the final SLA/energy floats
// bit-exactly.
func hashScaleSeries(s *metrics.Series, energyKWh float64) string {
	h := sha256.New()
	for _, sm := range s.Samples {
		fmt.Fprintf(h, "%d,%d,%d,%d,%x\n",
			sm.Round, sm.ActivePMs, sm.OverloadedPMs, sm.Migrations,
			math.Float64bits(sm.MigrationEnergyJ))
	}
	fmt.Fprintf(h, "%x,%x,%x,%x\n",
		math.Float64bits(s.SLAVO), math.Float64bits(s.SLALM),
		math.Float64bits(s.SLAV), math.Float64bits(energyKWh))
	return hex.EncodeToString(h.Sum(nil))
}

// runScale is the `-exp scale` mode. sizes overrides the default grid when
// non-empty (the CI smoke runs a single small size).
func runScale(seed uint64, outPath string, sizes []int) {
	if len(sizes) == 0 {
		sizes = scaleSizes
	}
	// GC discipline is size-conditional. On the ≥20k-PM rows GOGC=10 is an
	// anti-OOM and heap-watermark measure: with the default GOGC=100 the
	// collector lets the heap double over live state before collecting, so
	// heap_bytes_peak would report mostly floating garbage from the merge
	// churn of the aggregation phase rather than the layout's real footprint.
	// On small rows the same pinning costs ~10% CPU — doubling a
	// few-hundred-MB heap is harmless — so they run under the process
	// default. The effective GOGC is recorded per row in the env
	// metadata: two heap_bytes_peak figures are only comparable under the
	// same discipline. The 8 GiB soft limit is an anti-OOM backstop only —
	// the largest row's live state must stay clear of it, or the pacer would
	// stall the run in back-to-back collections.
	defaultGC := effectiveGOGC
	prevLimit := debug.SetMemoryLimit(8 << 30)
	defer debug.SetMemoryLimit(prevLimit)
	defer setGCPercent(defaultGC)
	rep := scaleReport{
		envMeta:     currentEnv(),
		Ratio:       scaleRatio,
		LearnRounds: scaleLearnRounds,
		AggRounds:   scaleAggRounds,
		ConsRounds:  scaleConsRounds,
		Seed:        seed,
	}
	workers := scaleWorkerList()
	fmt.Printf("== scale: sizes=%v workers=%v (GOMAXPROCS=%d) ==\n",
		sizes, workers, rep.GOMAXPROCS)
	rep.warnIfSerial()
	for _, pms := range sizes {
		if pms >= scaleTightGCMinPMs {
			setGCPercent(10)
		} else {
			setGCPercent(defaultGC)
		}
		// The streaming source holds per-VM generator state (a few dozen
		// bytes) instead of materialised series; at 200k VMs × 100 rounds the
		// retired eager path alone held ~1.3 GB of float64 samples.
		w, err := trace.GenerateStreaming(trace.DefaultGenConfig(pms*scaleRatio, scaleLearnRounds+scaleAggRounds+scaleConsRounds, seed))
		if err != nil {
			log.Fatal(err)
		}
		emit := func(row scaleRow) {
			rep.Rows = append(rep.Rows, row)
			fastRate := 0.0
			if row.MergeTotal > 0 {
				fastRate = 100 * float64(row.MergeFastHits) / float64(row.MergeTotal)
			}
			fmt.Printf("pms=%-6d %s workers=%-2d pretrain=%7.2fs (learn=%7.2fs agg=%6.2fs) (%.2fx, %.2f allocs/iter, %.0f B/iter) consolidation=%6.2fs metrics=%6.3fs vals=%6.1fMB merge=%.0fns fast=%.0f%% cosine=%.0fns gogc=%d heap_peak=%6.1fMB (%.0f B/PM) hash=%s\n",
				pms, row.Precision, row.Workers, row.PretrainSec,
				row.PretrainLearnSec, row.PretrainAggSec, row.PretrainSpeedup,
				row.PretrainAllocsPerIter, row.PretrainBytesPerIter,
				row.ConsolidationSec, row.MetricsSec,
				float64(row.ValueBytes)/(1<<20), row.MergeNsPerPair, fastRate,
				row.CosineNsPerSample, row.GOGC,
				float64(row.HeapBytesPeak)/(1<<20), float64(row.HeapBytesPeak)/float64(pms),
				row.SeriesHash[:12])
		}

		// F64 reference rows across the worker list. The hash class is
		// checked here, at generation time: every row shares one
		// fingerprint.
		var f64Pretrain float64
		var f64Heap uint64
		var f64Hash string
		for _, wk := range workers {
			row, err := runScaleCell(pms, wk, seed, w, qlearn.F64)
			if err != nil {
				log.Fatal(err)
			}
			if wk == 1 {
				f64Pretrain, f64Hash, f64Heap = row.PretrainSec, row.SeriesHash, row.HeapBytesPeak
			}
			if f64Pretrain > 0 {
				row.PretrainSpeedup = f64Pretrain / row.PretrainSec
			}
			if f64Hash != "" && row.SeriesHash != f64Hash {
				log.Fatalf("scale: series hash diverged at pms=%d workers=%d", pms, wk)
			}
			emit(row)
		}
		// F32 value-tier rows: the F64 class re-run on the narrow
		// tier. The tier keeps its own hash class — rounded Q-values may
		// legitimately flip near-tie decisions against the F64 series — and
		// that class must itself be byte-identical across worker counts.
		// PretrainSpeedup is relative to the F32 workers=1 row, so the
		// column keeps meaning "parallel speedup", not "tier speedup".
		var f32Pretrain float64
		var f32Hash string
		for _, wk := range workers {
			row, err := runScaleCell(pms, wk, seed, w, qlearn.F32)
			if err != nil {
				log.Fatal(err)
			}
			if wk == 1 {
				f32Pretrain, f32Hash = row.PretrainSec, row.SeriesHash
				if f64Heap > 0 {
					fmt.Printf("pms=%-6d f32 heap_bytes_peak vs f64: %.1f%% reduction\n",
						pms, 100*(1-float64(row.HeapBytesPeak)/float64(f64Heap)))
				}
			}
			if f32Hash != "" && row.SeriesHash != f32Hash {
				log.Fatalf("scale: f32 series hash diverged at pms=%d workers=%d", pms, wk)
			}
			if f32Pretrain > 0 {
				row.PretrainSpeedup = f32Pretrain / row.PretrainSec
			}
			emit(row)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}
