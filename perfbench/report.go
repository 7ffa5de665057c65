package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// report is one benchmark run: the environment, every replication and every
// check. It is printed in full before the result line.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"measured_seconds"`
	Env      env     `json:"env"`

	SetupS    []float64 `json:"setup_s_samples"`
	Untraced  []repView `json:"untraced_reps"`
	TracedRep []repView `json:"traced_reps,omitempty"`
	// FidelityHash is glapsim.Run's result hash for the same Experiment
	// (untraced runs only).
	FidelityHash string   `json:"fidelity_hash,omitempty"`
	Failures     []string `json:"failures"`

	attempted, failed int
	untraced, traced  []*outcome
}

// repView is the printed form of one replication.
type repView struct {
	OK           bool               `json:"ok"`
	Hash         string             `json:"hash,omitempty"`
	SetupS       float64            `json:"setup_s"`
	PretrainS    float64            `json:"pretrain_s"`
	ConsolidateS float64            `json:"consolidate_s"`
	TotalS       float64            `json:"total_s"`
	CPUS         float64            `json:"cpu_s"`
	LivePeakMB   float64            `json:"live_heap_peak_mb"`
	ActivePMs    int                `json:"active_pms"`
	BFDPMs       int                `json:"bfd_pms"`
	Migrations   int64              `json:"migrations"`
	SLAV         float64            `json:"slav"`
	EnergyKWh    float64            `json:"energy_kwh"`
	MergeFast    uint64             `json:"merge_fast_hits"`
	LayerS       map[string]float64 `json:"layer_s,omitempty"`
	ClosureMs    float64            `json:"closure_ms,omitempty"`
}

func view(o *outcome, ok bool) repView {
	v := repView{OK: ok}
	if o == nil {
		return v
	}
	v.Hash = o.hash
	v.SetupS, v.PretrainS, v.ConsolidateS, v.TotalS, v.CPUS = o.setupS, o.pretrainS, o.consolidateS, o.totalS, o.ctr.cpu
	v.LivePeakMB = float64(o.livePeak) / 1e6
	v.ActivePMs, v.BFDPMs, v.Migrations, v.SLAV, v.EnergyKWh = o.activePMs, o.bfdPMs, o.migrations, o.slav, o.energyKWh
	v.MergeFast = o.merge.FastHits()
	if o.tr != nil {
		v.LayerS = map[string]float64{"metrics.finalize": o.finalizeS}
		for l, d := range o.tr.total {
			v.LayerS[layerNames[l]] = d.Seconds()
		}
		v.ClosureMs = o.closure.Seconds() * 1e3
	}
	return v
}

// measure runs the workload: set-up-only replications for the set-up
// samples, then untraced replications (each preceded by a traced twin when
// tracedRun is set) until the measurement time has passed, then, for
// untraced runs, the fidelity check against glapsim.Run.
//
// An operation is one replication. It fails on an error, a cluster
// invariant violation, a result hash that differs from the run's first
// replication (every replication runs the same seed), a traced hash that
// differs from its untraced twin, an open layer closure, or — for the first
// untraced replication — a hash that differs from glapsim.Run's.
func measure(w workload, seed uint64, seconds time.Duration, tracedRun bool) *report {
	r := &report{Workload: w.name, Seed: seed, Traced: tracedRun, Failures: []string{}}
	fail := func(format string, args ...any) {
		r.failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	for i := 0; i < setupReps; i++ {
		o, err := w.replicate(seed, setupOnly)
		if err != nil {
			r.attempted++
			fail("set-up %d: %v", i, err)
			continue
		}
		r.SetupS = append(r.SetupS, o.setupS)
	}

	var firstHash string
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < seconds; n++ {
		// The traced twin runs first, so the first traced replication is the
		// process's first pre-training: its qlearn counts are those of a
		// fresh glapsim.Run (see perLayer).
		var ot *outcome
		var errT error
		if tracedRun {
			r.attempted++
			ot, errT = w.replicate(seed, traced)
		}
		r.attempted++
		o, err := w.replicate(seed, untraced)
		ok := err == nil
		switch {
		case err != nil:
			fail("untraced %d: %v", n, err)
		case firstHash == "":
			firstHash = o.hash
		case o.hash != firstHash:
			ok = false
			fail("untraced %d: hash %s differs from the first replication's %s", n, o.hash, firstHash)
		}
		r.Untraced = append(r.Untraced, view(o, ok))
		if ok {
			r.untraced = append(r.untraced, o)
			r.SetupS = append(r.SetupS, o.setupS)
		}
		if !tracedRun {
			continue
		}
		okT := errT == nil
		switch {
		case errT != nil:
			fail("traced %d: %v", n, errT)
		case !ok:
			okT = false
			fail("traced %d: no untraced twin to compare against", n)
		case ot.hash != o.hash:
			okT = false
			fail("traced %d: hash %s differs from its untraced twin's %s", n, ot.hash, o.hash)
		case ot.closure < 0 || ot.closure > closureTolerance:
			okT = false
			fail("traced %d: layers leave %v of the traced phases unattributed", n, ot.closure)
		}
		r.TracedRep = append(r.TracedRep, view(ot, okT))
		if okT {
			r.traced = append(r.traced, ot)
		}
	}
	r.Seconds = time.Since(start).Seconds()

	if !tracedRun && len(r.Untraced) > 0 && r.Untraced[0].OK {
		hash, err := w.reference(seed)
		r.FidelityHash = hash
		if err != nil || hash != r.Untraced[0].Hash {
			r.Untraced[0].OK = false
			fail("fidelity: glapsim.Run hash %q (err %v) differs from the assembly's %s", hash, err, r.Untraced[0].Hash)
		}
	}
	return r
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if r.Traced {
		r.perLayer(put)
	} else {
		r.endToEnd(put)
	}
	return res
}

// endToEnd reports the untraced medians. The paper metrics are exact for a
// seed (every replication's hash agrees), so the first replication's
// figures stand for all.
func (r *report) endToEnd(put func(name, unit string, v float64)) {
	med := func(f func(*outcome) float64) float64 { return median(collect(r.untraced, f)) }
	put("setup_s", "s", median(r.SetupS))
	put("consolidate_s", "s", med(func(o *outcome) float64 { return o.consolidateS }))
	put("total_s", "s", med(func(o *outcome) float64 { return o.totalS }))
	put("live_heap_peak_mb", "MB", med(func(o *outcome) float64 { return float64(o.livePeak) / 1e6 }))
	var first outcome
	if len(r.untraced) > 0 {
		first = *r.untraced[0]
	}
	ratio := 0.0
	if first.bfdPMs > 0 {
		ratio = float64(first.activePMs) / float64(first.bfdPMs)
	}
	put("active_pms_over_bfd", "ratio", ratio)
	put("migrations", "count", float64(first.migrations))
	put("energy_kwh", "kWh", first.energyKWh)
}

// perLayer reports the traced medians; every layer is reported on every
// workload, with zero time where the layer does not run.
func (r *report) perLayer(put func(name, unit string, v float64)) {
	med := func(f func(*outcome) float64) float64 { return median(collect(r.traced, f)) }
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		put(name+"_s", "s", med(func(o *outcome) float64 { return o.tr.total[l].Seconds() }))
		put(name+".round_p50_ms", "ms", med(func(o *outcome) float64 { return quantile(o.tr.perRound[l], 0.5) }))
		put(name+".round_p95_ms", "ms", med(func(o *outcome) float64 { return quantile(o.tr.perRound[l], 0.95) }))
	}
	put("metrics.finalize_s", "s", med(func(o *outcome) float64 { return o.finalizeS }))
	put("trace.open_s", "s", med(func(o *outcome) float64 { return o.traceOpenS }))
	put("dc.build_s", "s", med(func(o *outcome) float64 { return o.dcBuildS }))
	put("glap.checkpoint_decode_s", "s", med(func(o *outcome) float64 { return o.decodeS }))

	// Counts are exact for a seed, except qlearn's merge outcomes and value
	// bytes: the interning cache and backing pool behind them are
	// process-wide, so they depend on the pre-trainings the process ran
	// before. They come from the first traced replication, the process's
	// first pre-training.
	var first outcome
	if len(r.traced) > 0 {
		first = *r.traced[0]
	}
	fastRatio := 0.0
	if first.merge.Merges > 0 {
		fastRatio = float64(first.merge.FastHits()) / float64(first.merge.Merges)
	}
	put("qlearn.merges", "count", float64(first.merge.Merges))
	put("qlearn.merge_fast_hits", "count", float64(first.merge.FastHits()))
	put("qlearn.merge_unions", "count", float64(first.merge.Unions))
	put("qlearn.merge_fast_ratio", "ratio", fastRatio)
	put("qlearn.value_bytes", "B", float64(first.valueBytes))
	upNodeRounds := 0.0
	if first.tr != nil {
		upNodeRounds = float64(first.tr.upNodeRounds)
	}
	put("sim.up_node_rounds", "count", upNodeRounds)
	put("metrics.slav", "ratio", first.slav)

	put("process.cpu_s", "s", med(func(o *outcome) float64 { return o.ctr.cpu }))
	put("process.parallelism", "ratio", med(func(o *outcome) float64 {
		if o.totalS == 0 {
			return 0
		}
		return o.ctr.cpu / o.totalS
	}))
	put("runtime.alloc_mb", "MB", med(func(o *outcome) float64 { return float64(o.ctr.allocs) / 1e6 }))
	put("runtime.gc_cycles", "count", med(func(o *outcome) float64 { return float64(o.ctr.gcAuto) }))
	put("runtime.gc_cpu_s", "s", med(func(o *outcome) float64 { return o.ctr.gcCPU }))
	total := func(o *outcome) float64 { return o.totalS }
	put("tracing.overhead_s", "s", median(collect(r.traced, total))-median(collect(r.untraced, total)))
}

func collect(outs []*outcome, f func(*outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

// quantile is the linearly interpolated q-quantile of v (0 for no values).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// env is recorded with every result.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOGC       uint64 `json:"gogc"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary; a checkout
	// without version control has none, so SourceSHA256 fingerprints the
	// sources the binary was built from.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func captureEnv() (env, error) {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "none"}
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	e.GOGC = s[0].Value.Uint64()
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				e.Commit = kv.Value
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified {
			e.Commit += "+modified"
		}
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return e, err
	}
	e.SourceSHA256 = digest
	return e, nil
}

// sourceDigest hashes the path and contents of every Go source and module
// file under root, skipping dot-directories (version control, build output).
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hashing sources: %s: %w", p, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
