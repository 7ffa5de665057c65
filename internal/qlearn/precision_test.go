package qlearn

import (
	"math/rand"
	"testing"
)

// f32r is the F32 tier's rounding point, spelled out.
func f32r(v float64) float64 { return float64(float32(v)) }

// TestPrecisionRounding pins the single-rounding contract: an F32 table
// stores float64(float32(v)) — one rounding on store, none on read — while
// the F64 tier stores v bit-exactly.
func TestPrecisionRounding(t *testing.T) {
	const v = 0.1 // not representable in float32
	t64 := New(0.5, 0.8)
	t64.Set(1, 2, v)
	if got := t64.Get(1, 2); got != v {
		t.Fatalf("F64 Get = %v, want %v", got, v)
	}
	if t64.Precision() != F64 {
		t.Fatal("New must build an F64 table")
	}

	t32 := NewP(0.5, 0.8, F32)
	if t32.Precision() != F32 {
		t.Fatal("NewP(F32) tier lost")
	}
	t32.Set(1, 2, v)
	if got := t32.Get(1, 2); got != f32r(v) {
		t.Fatalf("F32 Get = %v, want rounded %v", got, f32r(v))
	}
	// Out-of-span cells live in the float64 overflow map on both tiers but
	// must round through the same point, so the whole table quantises
	// uniformly.
	t32.Set(200, 200, v)
	if got := t32.Get(200, 200); got != f32r(v) {
		t.Fatalf("F32 overflow Get = %v, want rounded %v", got, f32r(v))
	}
}

// TestPrecisionUpdateAccumulatesWide verifies Update blends Equation 1 in
// float64 and rounds exactly once on store: the result equals the float64
// blend of the (already rounded) operands, rounded at the end — not a chain
// of float32 intermediates.
func TestPrecisionUpdateAccumulatesWide(t *testing.T) {
	const alpha, gamma = 0.5, 0.8
	tb := NewP(alpha, gamma, F32)
	tb.Set(1, 2, 0.3) // old value, stored rounded
	tb.Set(4, 7, 0.7) // row max of next state, stored rounded
	const r = 0.123456789
	got := tb.Update(1, 2, r, 4)
	want := f32r((1-alpha)*f32r(0.3) + alpha*(r+gamma*f32r(0.7)))
	if got != want {
		t.Fatalf("Update = %v, want single-rounded %v", got, want)
	}
	if tb.Get(1, 2) != want {
		t.Fatalf("stored %v, want %v", tb.Get(1, 2), want)
	}
}

// TestPrecisionReplayDifferential replays one pseudo-random update/set/merge
// sequence through an F64 pair and an F32 pair in lockstep. The two runs
// visit identical cells (the draws are value-independent), so the tables
// must agree cell-for-cell within float32 rounding of the running values,
// and every F32 cell must be exactly float32-representable.
func TestPrecisionReplayDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a64, b64 := New(0.5, 0.8), New(0.5, 0.8)
	a32, b32 := NewP(0.5, 0.8, F32), NewP(0.5, 0.8, F32)

	checkClose := func(step int, t64, t32 *Table) {
		t.Helper()
		if t64.Len() != t32.Len() {
			t.Fatalf("step %d: Len %d (F64) vs %d (F32): cell sets diverged", step, t64.Len(), t32.Len())
		}
		for k, v64 := range t64.Flat() {
			v32 := t32.Get(k.S, k.A)
			if v32 != f32r(v32) {
				t.Fatalf("step %d: F32 cell %v holds non-f32 value %v", step, k, v32)
			}
			// Rounding drift compounds across updates and merges; a loose
			// relative envelope (~2^-18) catches tier mix-ups (which diverge
			// wildly) without tripping on legitimate accumulation.
			diff, scale := v64-v32, 1.0
			if v64 < 0 {
				diff = -diff
			}
			if v64 > 1 || v64 < -1 {
				scale = v64
				if scale < 0 {
					scale = -scale
				}
			}
			if diff < 0 {
				diff = -diff
			}
			if diff > scale*4e-6 {
				t.Fatalf("step %d: cell %v diverged: F64 %v vs F32 %v", step, k, v64, v32)
			}
		}
	}

	for step := 0; step < 3000; step++ {
		s, a, next := State(rng.Intn(81)), Action(rng.Intn(81)), State(rng.Intn(81))
		switch op := rng.Intn(10); {
		case op < 6:
			r := rng.NormFloat64() * 10
			if rng.Intn(2) == 0 {
				a64.Update(s, a, r, next)
				a32.Update(s, a, r, next)
			} else {
				b64.Update(s, a, r, next)
				b32.Update(s, a, r, next)
			}
		case op < 8:
			v := rng.NormFloat64()
			a64.Set(s, a, v)
			a32.Set(s, a, v)
		default:
			Unify(a64, b64)
			Unify(a32, b32)
			checkClose(step, a64, a32)
			checkClose(step, b64, b32)
		}
	}
	checkClose(3000, a64, a32)
	checkClose(3000, b64, b32)
}

// TestPrecisionMergeRejectsMixedTiers pins the merge contract: averaging a
// float64 table into a float32 one would silently pick one tier's rounding
// for both, so mixed-tier merges must panic instead.
func TestPrecisionMergeRejectsMixedTiers(t *testing.T) {
	p, q := New(0.5, 0.8), NewP(0.5, 0.8, F32)
	p.Set(1, 2, 3)
	q.Set(4, 5, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("Unify across tiers did not panic")
		}
	}()
	Unify(p, q)
}

// TestPrecisionEqualAcrossTiers: Equal compares widened values, so an F64
// and an F32 table holding the same (f32-representable) cells are equal.
func TestPrecisionEqualAcrossTiers(t *testing.T) {
	p, q := New(0.5, 0.8), NewP(0.5, 0.8, F32)
	p.Set(1, 2, 0.25)
	q.Set(1, 2, 0.25)
	if !Equal(p, q) {
		t.Fatal("tables with identical representable values unequal across tiers")
	}
	p.Set(3, 3, 0.1) // 0.1 is not f32-representable
	q.Set(3, 3, 0.1) // stored rounded → differs from p's cell
	if Equal(p, q) {
		t.Fatal("rounded F32 cell compared equal to unrounded F64 cell")
	}
}

// TestPoolTierIsolation pins the pool contract under mixed precision: the
// vals and vals32 free lists never cross tiers — an F32 acquire must not
// consume (or be handed) a pooled float64 array, and vice versa.
func TestPoolTierIsolation(t *testing.T) {
	backingPool.mu.Lock()
	backingPool.nodes, backingPool.idxs = nil, nil
	backingPool.vals, backingPool.vals32 = nil, nil
	backingPool.mu.Unlock()

	poolLens := func() (v64, v32 int) {
		backingPool.mu.Lock()
		defer backingPool.mu.Unlock()
		return len(backingPool.vals), len(backingPool.vals32)
	}

	releaseBacking(newBacking(64, false)) // donate one f64 array
	if v64, v32 := poolLens(); v64 != 1 || v32 != 0 {
		t.Fatalf("after f64 release: vals=%d vals32=%d", v64, v32)
	}

	b := acquireBacking(8, true) // f32 acquire must leave the f64 array alone
	if !b.f32 || b.vals != nil || b.vals32 == nil {
		t.Fatalf("f32 acquire built wrong tier: f32=%v vals=%v vals32=%v", b.f32, b.vals != nil, b.vals32 != nil)
	}
	if v64, v32 := poolLens(); v64 != 1 || v32 != 0 {
		t.Fatalf("f32 acquire touched f64 list: vals=%d vals32=%d", v64, v32)
	}

	releaseBacking(b)
	if v64, v32 := poolLens(); v64 != 1 || v32 != 1 {
		t.Fatalf("after f32 release: vals=%d vals32=%d", v64, v32)
	}

	b = acquireBacking(8, false) // f64 acquire takes the pooled f64 array only
	if b.f32 || b.vals == nil || b.vals32 != nil {
		t.Fatalf("f64 acquire built wrong tier: f32=%v vals=%v vals32=%v", b.f32, b.vals != nil, b.vals32 != nil)
	}
	if v64, v32 := poolLens(); v64 != 0 || v32 != 1 {
		t.Fatalf("f64 acquire mis-drew: vals=%d vals32=%d", v64, v32)
	}
	releaseBacking(b)
}

// unionPair builds a tier's merge pair whose union is the 300-cell set
// {0..299} (≥ canonMinCells, so the union is interning-eligible).
func unionPair(prec Precision) (*Table, *Table) {
	p, q := NewP(0.5, 0.8, prec), NewP(0.5, 0.8, prec)
	for i := 0; i < 300; i++ {
		s, a := State(i/81), Action(i%81)
		if i != 0 {
			p.Set(s, a, float64(i))
		}
		if i != 299 {
			q.Set(s, a, -float64(i))
		}
	}
	return p, q
}

// TestCanonInterningAcrossTiers: canonical cell-set interning is keyed on
// the idx array alone (cells, not values), so F64 and F32 backings that
// reach the same union shape alias one immutable canonical array.
func TestCanonInterningAcrossTiers(t *testing.T) {
	// Two F64 unions: the first sights the set, the second interns it.
	p, q := unionPair(F64)
	Unify(p, q)
	p, q = unionPair(F64)
	Unify(p, q)
	if !p.b.idxShared {
		t.Fatal("second F64 union did not intern its cell set")
	}
	arr64 := &p.b.idx[0]

	p32, q32 := unionPair(F32)
	Unify(p32, q32)
	if !p32.b.idxShared {
		t.Fatal("F32 union did not adopt the interned cell set")
	}
	if &p32.b.idx[0] != arr64 {
		t.Fatal("F32 union built a private array instead of aliasing the canonical one")
	}
	if !p32.b.f32 || p32.b.vals32 == nil {
		t.Fatal("interned F32 backing lost its tier")
	}
}

// TestCapRoundPinned pins the capacity schedule for both tiers: capRound is
// tier-independent, and a fresh backing's value array capacity follows it on
// whichever tier it is built.
func TestCapRoundPinned(t *testing.T) {
	cases := map[int]int{
		0:    minBackingCap,
		1:    minBackingCap,
		15:   minBackingCap,
		16:   128,
		100:  192,
		500:  576,
		2047: 2112,
		2048: 2048,
		2049: 2064,
		5000: 5008,
	}
	for need, want := range cases {
		if got := capRound(need); got != want {
			t.Fatalf("capRound(%d) = %d, want %d", need, got, want)
		}
	}
	for need := range cases {
		b64 := newBacking(need, false)
		if cap(b64.vals) != capRound(need) || cap(b64.idx) != capRound(need) || b64.vals32 != nil {
			t.Fatalf("newBacking(%d, f64): caps idx=%d vals=%d", need, cap(b64.idx), cap(b64.vals))
		}
		b32 := newBacking(need, true)
		if cap(b32.vals32) != capRound(need) || cap(b32.idx) != capRound(need) || b32.vals != nil {
			t.Fatalf("newBacking(%d, f32): caps idx=%d vals32=%d", need, cap(b32.idx), cap(b32.vals32))
		}
	}
}

// TestFootprintValueBytes: Footprint's value-byte accounting charges 8 bytes
// per pooled f64 slot and 4 per f32 slot, so an F32 table reports half the
// value bytes of an F64 table with the same capacity.
func TestFootprintValueBytes(t *testing.T) {
	fill := func(prec Precision) *Table {
		tb := NewP(0.5, 0.8, prec)
		for i := 0; i < 300; i++ {
			tb.Set(State(i/81), Action(i%81), float64(i))
		}
		return tb
	}
	t64, t32 := fill(F64), fill(F32)
	_, bytes64, vb64, cells64 := Footprint([]*Table{t64})
	_, bytes32, vb32, cells32 := Footprint([]*Table{t32})
	if cells64 != 300 || cells32 != 300 {
		t.Fatalf("cells = %d / %d, want 300", cells64, cells32)
	}
	if vb64 != 2*vb32 {
		t.Fatalf("valueBytes F64 %d, F32 %d: want exact halving at equal capacity", vb64, vb32)
	}
	if vb64 > bytes64 || vb32 > bytes32 {
		t.Fatal("valueBytes exceeds total bytes")
	}
}
