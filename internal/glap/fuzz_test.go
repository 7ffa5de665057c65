package glap

import (
	"bytes"
	"testing"
)

// FuzzLoadTables feeds arbitrary bytes to the Q-store checkpoint loader.
// LoadTables must never panic, and any store it accepts must re-encode
// stably: SaveTables → LoadTables → SaveTables yields identical bytes. The
// seed corpus under testdata/fuzz/FuzzLoadTables holds small SaveTables
// outputs and stores embedding retired version-2 table documents, which
// LoadTables must reject (see TestRetiredV2DocumentsRejected).
func FuzzLoadTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadTables(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := saveForFuzz(t, st)
		again, err := LoadTables(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("loading a re-saved store: %v\n%s", err, first)
		}
		if second := saveForFuzz(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-saving is not stable:\n%s\n%s", first, second)
		}
	})
}

func saveForFuzz(t *testing.T, st *NodeTables) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveTables(&buf, st); err != nil {
		t.Fatalf("saving an accepted store: %v", err)
	}
	return buf.Bytes()
}
