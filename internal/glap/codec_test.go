package glap

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/glap-sim/glap/internal/qlearn"
)

func TestSaveLoadTables(t *testing.T) {
	orig := &NodeTables{
		Out:     qlearn.New(0.5, 0.8),
		In:      qlearn.New(0.5, 0.8),
		Trained: true,
	}
	orig.Out.Set(Levels{X3High, Medium}.State(), Levels{High, Low}.Action(), 42.5)
	orig.In.Set(Levels{X5High, XHigh}.State(), Levels{Medium, Low}.Action(), -987)

	var buf bytes.Buffer
	if err := SaveTables(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !qlearn.Equal(orig.Out, got.Out) || !qlearn.Equal(orig.In, got.In) {
		t.Fatal("round-trip lost table contents")
	}
	if !got.Trained {
		t.Fatal("round-trip lost Trained flag")
	}
}

func TestSaveLoadEndToEnd(t *testing.T) {
	// Pre-train a tiny cluster, checkpoint, restore, and verify the
	// restored store drives consolidation identically to the original.
	cl := genCluster(t, 12, 24, 60, 31)
	pre, err := Pretrain(Config{LearnRounds: 20, AggRounds: 15}, cl, 31, PretrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := SharedTables(pre)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTables(&buf, shared); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tables *NodeTables) int64 {
		cl := genCluster(t, 12, 24, 60, 31)
		e, _ := installConsolidation(t, cl, tables, 77)
		e.RunRounds(30)
		return cl.Migrations
	}
	if a, b := run(shared), run(restored); a != b {
		t.Fatalf("restored tables behave differently: %d vs %d migrations", a, b)
	}
}

// TestCheckpointRestoreByteIdentical pins the warm-restart contract the
// crash scenario relies on: restoring a checkpoint and re-checkpointing the
// result reproduces the snapshot byte for byte, and the restored store equals
// the original.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	cl := genCluster(t, 8, 16, 40, 5)
	pre, err := Pretrain(Config{LearnRounds: 15, AggRounds: 10}, cl, 5, PretrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := SharedTables(pre)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CheckpointTables(shared)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTables(cp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CheckpointTables(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp, again) {
		t.Fatal("re-checkpointing a restored store is not byte-identical")
	}
	if !qlearn.Equal(shared.Out, restored.Out) || !qlearn.Equal(shared.In, restored.In) {
		t.Fatal("restored store differs from the original")
	}
	if !restored.Trained {
		t.Fatal("restore lost the Trained flag")
	}
}

func TestLoadTablesErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "nope",
		"bad version": `{"version":9,"out":{},"in":{}}`,
		"bad inner":   `{"version":1,"out":{"version":1,"alpha":9,"gamma":0.5},"in":{"version":1,"alpha":0.5,"gamma":0.5}}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadTables(strings.NewReader(in)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestRetiredV2DocumentsRejected feeds the table codec and the Q-store loader
// version-2 table documents, which recorded a value-storage tier that no
// longer exists: the committed fuzz seeds that carry "precision":"f32", and
// one that spells out "f64". Each must fail with an error naming the
// version, never panic and never yield a table.
func TestRetiredV2DocumentsRejected(t *testing.T) {
	const v2f64 = `{"version":2,"precision":"f64","alpha":0.5,"gamma":0.8,"cells":[{"s":1,"a":2,"q":3.25}]}`
	decode := func(b []byte) error {
		_, err := qlearn.Decode(bytes.NewReader(b))
		return err
	}
	load := func(b []byte) error {
		_, err := LoadTables(bytes.NewReader(b))
		return err
	}
	qlearnSeeds := filepath.Join("..", "qlearn", "testdata", "fuzz", "FuzzDecode")
	glapSeeds := filepath.Join("testdata", "fuzz", "FuzzLoadTables")
	cases := []struct {
		name  string
		read  func(b []byte) error
		input []byte
	}{
		{"Decode/small-f32", decode, readFuzzSeed(t, filepath.Join(qlearnSeeds, "small-f32"))},
		{"Decode/f32-overflow", decode, readFuzzSeed(t, filepath.Join(qlearnSeeds, "f32-overflow"))},
		{"Decode/v2-f64", decode, []byte(v2f64)},
		{"LoadTables/trained-f32", load, readFuzzSeed(t, filepath.Join(glapSeeds, "trained-f32"))},
		{"LoadTables/f32-overflow", load, readFuzzSeed(t, filepath.Join(glapSeeds, "f32-overflow"))},
		{"LoadTables/v2-f64", load, []byte(`{"version":1,"trained":true,"out":` + v2f64 + `,"in":` + v2f64 + `}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.read(c.input); err == nil || !strings.Contains(err.Error(), "version 2") {
				t.Errorf("error = %v, want one naming version 2", err)
			}
		})
	}
}

// readFuzzSeed returns the single []byte argument of a committed fuzz corpus
// file ("go test fuzz v1" format).
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	lit, ok := strings.CutPrefix(arg, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s: not a one-argument []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
