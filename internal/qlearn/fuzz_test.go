package qlearn

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the checkpoint codec. Decode must
// never panic, and any table it accepts must re-encode stably: encode →
// decode → encode yields identical bytes. The seed corpus under
// testdata/fuzz/FuzzDecode holds small Encode outputs and retired version-2
// documents, which Decode must reject (see TestRetiredV2DocumentsRejected in
// package glap).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encodeForFuzz(t, tbl)
		again, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decoding a re-encoded table: %v\n%s", err, first)
		}
		if second := encodeForFuzz(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first, second)
		}
	})
}

func encodeForFuzz(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Encode(&buf); err != nil {
		t.Fatalf("encoding an accepted table: %v", err)
	}
	return buf.Bytes()
}
