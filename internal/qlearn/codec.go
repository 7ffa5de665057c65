package qlearn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// tableJSON is the serialised form of a Table: a versioned envelope with the
// learning parameters and a flat, deterministic cell list. Version 1 has no
// precision field and always denotes the F64 tier; version 2 adds the
// precision string ("f64"/"f32"). F64 tables keep writing version 1, so
// default-tier checkpoints are byte-identical to pre-tier ones.
type tableJSON struct {
	Version   int        `json:"version"`
	Precision string     `json:"precision,omitempty"`
	Alpha     float64    `json:"alpha"`
	Gamma     float64    `json:"gamma"`
	Cells     []cellJSON `json:"cells"`
}

type cellJSON struct {
	S State   `json:"s"`
	A Action  `json:"a"`
	Q float64 `json:"q"`
}

const (
	codecVersion   = 1
	codecVersionV2 = 2
)

// maxCodecKey bounds the state/action values Decode accepts. The dense
// backing allocates numS×numA cells, so an absurd key in a corrupt or
// hostile checkpoint must fail the decode instead of forcing a huge
// allocation. GLAP's calibrated spaces are < 100 per dimension.
const maxCodecKey = 1 << 20

// Encode writes the table as JSON. Cells are emitted in deterministic
// (state, action) order so encodings of equal tables are byte-identical —
// convenient for checkpoint diffing. F64 tables emit the version-1
// envelope unchanged; F32 tables emit version 2 with the precision
// recorded, so a warm restart rebuilds the same tier.
func (t *Table) Encode(w io.Writer) error {
	out := tableJSON{Version: codecVersion, Alpha: t.Alpha, Gamma: t.Gamma}
	if t.prec == F32 {
		out.Version = codecVersionV2
		out.Precision = F32.String()
	}
	for _, k := range t.Keys() {
		out.Cells = append(out.Cells, cellJSON{S: k.S, A: k.A, Q: t.Get(k.S, k.A)})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("qlearn: encoding table: %w", err)
	}
	return bw.Flush()
}

// Decode reads a table previously written by Encode. Version-1 documents
// decode as F64 (they predate the precision tier); version-2 documents
// carry their tier explicitly. Non-finite parameters or cell values are
// rejected: a NaN Q-value would poison the NaN-sentinel row-max cache and
// propagate through every subsequent merge, so a corrupt or hostile
// checkpoint must fail loudly here instead.
func Decode(r io.Reader) (*Table, error) {
	var in tableJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("qlearn: decoding table: %w", err)
	}
	prec, err := validateEnvelope(&in)
	if err != nil {
		return nil, err
	}
	t := NewP(in.Alpha, in.Gamma, prec)
	for _, c := range in.Cells {
		if err := validateCell(c, prec); err != nil {
			return nil, err
		}
		t.Set(c.S, c.A, c.Q)
	}
	return t, nil
}

// validateEnvelope checks the version, precision, and learning parameters of
// a decoded envelope and resolves its precision tier. The non-finite checks
// are explicit even though encoding/json cannot parse a NaN or ±Inf number:
// NaN in particular defeats the range checks below (every NaN comparison is
// false, so a NaN alpha "satisfies" 0 < alpha ≤ 1), and any future codec
// front-end that can carry such values must hit this wall.
func validateEnvelope(in *tableJSON) (Precision, error) {
	prec := F64
	switch in.Version {
	case codecVersion:
	case codecVersionV2:
		switch in.Precision {
		case F64.String():
		case F32.String():
			prec = F32
		default:
			return 0, fmt.Errorf("qlearn: unknown table precision %q", in.Precision)
		}
	default:
		return 0, fmt.Errorf("qlearn: unsupported table version %d", in.Version)
	}
	if math.IsNaN(in.Alpha) || math.IsInf(in.Alpha, 0) || math.IsNaN(in.Gamma) || math.IsInf(in.Gamma, 0) {
		return 0, fmt.Errorf("qlearn: non-finite parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	if in.Alpha <= 0 || in.Alpha > 1 || in.Gamma < 0 || in.Gamma >= 1 {
		return 0, fmt.Errorf("qlearn: invalid parameters alpha=%g gamma=%g", in.Alpha, in.Gamma)
	}
	return prec, nil
}

// validateCell rejects out-of-range keys and non-finite Q-values: a NaN Q
// would poison the NaN-sentinel row-max cache and spread through every
// subsequent merge average, so a corrupt or hostile checkpoint fails here.
// The check applies to the value as stored on the table's tier: a finite
// float64 beyond float32 range would round to ±Inf on the F32 tier, and the
// table could then never be encoded again.
func validateCell(c cellJSON, prec Precision) error {
	if c.S >= maxCodecKey || c.A >= maxCodecKey {
		return fmt.Errorf("qlearn: cell key (%d, %d) out of range", c.S, c.A)
	}
	if q := prec.round(c.Q); math.IsNaN(q) || math.IsInf(q, 0) {
		return fmt.Errorf("qlearn: non-finite %s Q-value %g at cell (%d, %d)", prec, c.Q, c.S, c.A)
	}
	return nil
}
