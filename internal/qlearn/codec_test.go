package qlearn

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	orig := New(0.5, 0.8)
	orig.Set(1, 2, 3.25)
	orig.Set(4, 5, -1000)
	orig.Set(0, 0, 0)

	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, got) {
		t.Fatal("round-trip lost cells")
	}
	if got.Alpha != 0.5 || got.Gamma != 0.8 {
		t.Fatal("round-trip lost parameters")
	}
}

func TestCodecDeterministic(t *testing.T) {
	a := New(0.5, 0.8)
	b := New(0.5, 0.8)
	// Insert in different orders.
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	b.Set(2, 2, 2)
	b.Set(1, 1, 1)
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("encodings of equal tables differ")
	}
}

func TestCodecEmptyTable(t *testing.T) {
	var buf bytes.Buffer
	if err := New(1, 0).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty table decoded with %d cells", got.Len())
	}
}

func TestCodecPrecision(t *testing.T) {
	// F64 tables must keep writing the version-1 envelope with no
	// precision field: default-tier checkpoints stay byte-compatible with
	// every pre-tier reader and writer.
	var b64 bytes.Buffer
	f64 := New(0.5, 0.8)
	f64.Set(1, 2, 3.25)
	if err := f64.Encode(&b64); err != nil {
		t.Fatal(err)
	}
	if s := b64.String(); strings.Contains(s, "precision") || !strings.Contains(s, `"version":1`) {
		t.Fatalf("F64 envelope changed: %s", s)
	}

	// F32 tables round-trip through the version-2 envelope with the tier
	// and every (already-rounded) value preserved exactly.
	f32 := NewP(0.5, 0.8, F32)
	f32.Set(1, 2, 3.25)
	f32.Set(4, 5, 0.1) // rounds to float32(0.1) on store
	var b32 bytes.Buffer
	if err := f32.Encode(&b32); err != nil {
		t.Fatal(err)
	}
	if s := b32.String(); !strings.Contains(s, `"precision":"f32"`) || !strings.Contains(s, `"version":2`) {
		t.Fatalf("F32 envelope missing tier: %s", s)
	}
	got, err := Decode(&b32)
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != F32 {
		t.Fatalf("round-trip tier = %v, want F32", got.Precision())
	}
	if !Equal(f32, got) {
		t.Fatal("F32 round-trip lost values")
	}
	if got.Get(4, 5) != float64(float32(0.1)) {
		t.Fatalf("Get(4,5) = %v, want rounded 0.1", got.Get(4, 5))
	}

	// A version-2 envelope may also spell out "f64" explicitly.
	in := `{"version":2,"precision":"f64","alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3.25}]}`
	got, err = Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != F64 || got.Get(1, 2) != 3.25 {
		t.Fatal("explicit f64 v2 envelope mis-decoded")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad version": `{"version":99,"alpha":0.5,"gamma":0.8}`,
		"bad alpha":   `{"version":1,"alpha":0,"gamma":0.8}`,
		"bad gamma":   `{"version":1,"alpha":0.5,"gamma":1.0}`,
		// Hostile payloads that smuggle non-finite floats as strings or
		// out-of-range literals die in the JSON layer; oversized keys and
		// bogus tiers die in the envelope checks. Either way Decode must
		// error, never build a table.
		"string nan alpha": `{"version":1,"alpha":"NaN","gamma":0.8}`,
		"string nan q":     `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":"NaN"}]}`,
		"overflow inf q":   `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":1e999}]}`,
		"huge key":         `{"version":1,"alpha":0.5,"gamma":0.8,"cells":[{"s":99999999,"a":2,"q":1}]}`,
		"v2 bad tier":      `{"version":2,"precision":"f16","alpha":0.5,"gamma":0.8}`,
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
	}

	// encoding/json cannot parse a bare NaN/Inf token, so the explicit
	// non-finite rejection is exercised at the validation layer directly —
	// NaN in particular slips through pure range checks (NaN comparisons
	// are all false), which is exactly the bug this guards against.
	nan, inf := math.NaN(), math.Inf(1)
	badEnvelopes := map[string]tableJSON{
		"nan alpha":  {Version: 1, Alpha: nan, Gamma: 0.8},
		"inf alpha":  {Version: 1, Alpha: inf, Gamma: 0.8},
		"nan gamma":  {Version: 1, Alpha: 0.5, Gamma: nan},
		"-inf gamma": {Version: 1, Alpha: 0.5, Gamma: math.Inf(-1)},
	}
	for name, env := range badEnvelopes {
		if _, err := validateEnvelope(&env); err == nil {
			t.Fatalf("envelope %q: expected error", name)
		}
	}
	badCells := map[string]cellJSON{
		"nan q":  {S: 1, A: 2, Q: nan},
		"inf q":  {S: 1, A: 2, Q: inf},
		"-inf q": {S: 1, A: 2, Q: math.Inf(-1)},
	}
	for name, c := range badCells {
		if err := validateCell(c, F64); err == nil {
			t.Fatalf("cell %q: expected error", name)
		}
	}
	if err := validateCell(cellJSON{S: 1, A: 2, Q: -1000}, F64); err != nil {
		t.Fatalf("finite cell rejected: %v", err)
	}
	// A finite float64 beyond float32 range overflows on the F32 tier only.
	big := cellJSON{S: 1, A: 2, Q: -1e300}
	if err := validateCell(big, F32); err == nil {
		t.Fatal("f32 overflow cell: expected error")
	}
	if err := validateCell(big, F64); err != nil {
		t.Fatalf("f64 cell rejected: %v", err)
	}
}
