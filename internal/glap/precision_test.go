package glap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

// TestPretrainF32BoundedDivergence runs the same pre-training twice — default
// F64 and the F32 value tier — and pins the tier's accuracy contract. The
// training draws are value-independent (actions come from demand levels,
// rewards from levels, partitions from the RNG), so both runs visit identical
// cells; only the stored values drift by accumulated float32 rounding. The
// per-cell divergence must stay within a tight relative envelope, the φ^io
// cosine trajectory must still converge to ~1, and every F32 cell must be
// exactly float32-representable.
func TestPretrainF32BoundedDivergence(t *testing.T) {
	run := func(prec qlearn.Precision) *PretrainResult {
		cl := genCluster(t, 24, 72, 120, 11)
		cfg := Config{LearnRounds: 40, AggRounds: 40, Precision: prec}
		res, err := Pretrain(cfg, cl, 11, PretrainOptions{MeasureEvery: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r64, r32 := run(qlearn.F64), run(qlearn.F32)

	if got := r32.FinalSimilarity(); got < 0.999 {
		t.Fatalf("F32 final similarity %g, want ~1", got)
	}
	if len(r32.Convergence) != len(r64.Convergence) {
		t.Fatalf("convergence series lengths differ: %d vs %d", len(r64.Convergence), len(r32.Convergence))
	}
	// The cosine trajectory is a normalised statistic over thousands of
	// cells; float32 storage shifts each sample by at most a few ulps of
	// accumulated rounding.
	for i := range r32.Convergence {
		if d := math.Abs(r32.Convergence[i] - r64.Convergence[i]); d > 1e-4 {
			t.Fatalf("convergence[%d] diverged by %g: F64 %v vs F32 %v", i, d, r64.Convergence[i], r32.Convergence[i])
		}
	}

	checkTable := func(node int, t64, t32 *qlearn.Table) {
		t.Helper()
		if t32.Precision() != qlearn.F32 {
			t.Fatalf("node %d: table lost the F32 tier", node)
		}
		if t64.Len() != t32.Len() {
			t.Fatalf("node %d: cell sets diverged (%d vs %d) — draws are supposed to be value-independent", node, t64.Len(), t32.Len())
		}
		for k, v64 := range t64.Flat() {
			v32 := t32.Get(k.S, k.A)
			if v32 != float64(float32(v32)) {
				t.Fatalf("node %d cell %v: F32 table holds non-f32 value %v", node, k, v32)
			}
			scale := math.Abs(v64)
			if scale < 1 {
				scale = 1
			}
			if d := math.Abs(v64 - v32); d > 4e-4*scale {
				t.Fatalf("node %d cell %v: |ΔQ| = %g exceeds bound (F64 %v, F32 %v)", node, k, d, v64, v32)
			}
		}
	}
	for i := range r64.Tables {
		checkTable(i, r64.Tables[i].Out, r32.Tables[i].Out)
		checkTable(i, r64.Tables[i].In, r32.Tables[i].In)
	}
}

// f32ConvergencePin is the SHA-256 over the Float64bits of the F32 φ^io
// cosine trajectory of TestPretrainF32BoundedDivergence's setup. It was
// taken while F32 runs measured over a float32 φ^io buffer; the float64
// buffer reproduces it bit for bit because widening float32 is exact and
// both cosines accumulate in float64 in index order.
const f32ConvergencePin = "a33c69ef4a4db43c390c128a35829324e81b8b91c8c52a97415007a54626db01"

// TestPretrainF32ConvergencePinned pins the exact F32 convergence series of
// a 24-PM pre-training run (seed 11, 40 learning + 40 aggregation rounds,
// sampled every 5 rounds).
func TestPretrainF32ConvergencePinned(t *testing.T) {
	cl := genCluster(t, 24, 72, 120, 11)
	cfg := Config{LearnRounds: 40, AggRounds: 40, Precision: qlearn.F32}
	res, err := Pretrain(cfg, cl, 11, PretrainOptions{MeasureEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 {
		t.Fatal("no convergence samples")
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range res.Convergence {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != f32ConvergencePin {
		t.Fatalf("F32 convergence series hash %s, want %s (%d samples)", got, f32ConvergencePin, len(res.Convergence))
	}
}

// TestPretrainF32WorkerCountBitEquivalence is the F32 half of the worker
// invariance: the narrow tier must stay byte-identical for Workers=1 and
// Workers=8, including its convergence samples. Run under -race in CI
// alongside the F64 variant.
func TestPretrainF32WorkerCountBitEquivalence(t *testing.T) {
	run := func(workers int) *PretrainResult {
		cl := genCluster(t, 30, 60, 60, 3)
		cl.Workers = workers
		res, err := Pretrain(Config{LearnRounds: 25, AggRounds: 15, Precision: qlearn.F32}, cl, 17,
			PretrainOptions{MeasureEvery: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Convergence) != len(b.Convergence) {
		t.Fatalf("convergence series lengths differ: %d vs %d", len(a.Convergence), len(b.Convergence))
	}
	for i := range a.Convergence {
		if math.Float64bits(a.Convergence[i]) != math.Float64bits(b.Convergence[i]) {
			t.Fatalf("convergence[%d] diverges: %v vs %v", i, a.Convergence[i], b.Convergence[i])
		}
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if tableFingerprint(ta.Out) != tableFingerprint(tb.Out) || tableFingerprint(ta.In) != tableFingerprint(tb.In) {
			t.Fatalf("node %d tables diverge across worker counts", i)
		}
	}
}

// TestF32CheckpointRoundTrip pins the warm-restart contract for the narrow
// tier: a checkpointed F32 store restores as F32 with every value intact,
// re-checkpoints byte-identically, and keeps merging on its own tier.
func TestF32CheckpointRoundTrip(t *testing.T) {
	st := NewNodeTables(Config{Precision: qlearn.F32})
	st.Out.Set(1, 2, 0.1)
	st.Out.Set(3, 4, -7.5)
	st.In.Set(5, 6, 0.25)
	st.Trained = true

	blob, err := CheckpointTables(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreTables(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Out.Precision() != qlearn.F32 || got.In.Precision() != qlearn.F32 {
		t.Fatal("restore dropped the F32 tier")
	}
	if !got.Trained {
		t.Fatal("restore dropped the Trained flag")
	}
	if !qlearn.Equal(st.Out, got.Out) || !qlearn.Equal(st.In, got.In) {
		t.Fatal("restore lost values")
	}
	blob2, err := CheckpointTables(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-checkpoint not byte-identical")
	}

	// Merging two restored F32 stores stays on-tier and averages through
	// the F32 rounding point.
	other := NewNodeTables(Config{Precision: qlearn.F32})
	other.Out.Set(1, 2, 0.3)
	MergeTables(got, other)
	want := float64(float32((float64(float32(0.1)) + float64(float32(0.3))) / 2))
	if v := got.Out.Get(1, 2); v != want {
		t.Fatalf("merged value %v, want %v", v, want)
	}
	if got.Out.Precision() != qlearn.F32 || other.Out.Precision() != qlearn.F32 {
		t.Fatal("merge changed a tier")
	}
}

// TestIOVecF32WidensExactly pins the contract that lets F32 runs measure
// convergence through the float64 φ^io vector: every cell of an F32 store's
// IOVec is exactly the float32 rounding of the same cell in an F64 store.
func TestIOVecF32WidensExactly(t *testing.T) {
	wideT := NewNodeTables(Config{})
	narrowT := NewNodeTables(Config{Precision: qlearn.F32})
	for _, st := range []*NodeTables{wideT, narrowT} {
		st.Out.Set(1, 2, 0.1)
		st.Out.Set(80, 80, 1.0/3)
		st.In.Set(3, 4, -2.5)
		st.In.Set(0, 0, 1e-7)
	}
	wide, narrow := wideT.IOVec(), narrowT.IOVec()
	if len(wide) != IOVecLen || len(narrow) != IOVecLen {
		t.Fatalf("buffer lengths %d/%d, want %d", len(wide), len(narrow), IOVecLen)
	}
	for i := range wide {
		if want := float64(float32(wide[i])); narrow[i] != want {
			t.Fatalf("cell %d: F32 IOVec %v, want %v", i, narrow[i], want)
		}
	}
}
