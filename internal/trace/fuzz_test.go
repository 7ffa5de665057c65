package trace

import (
	"bytes"
	"testing"
)

// FuzzLoadCSV feeds arbitrary bytes to the CSV trace loader. LoadCSV must
// never panic, every sample it accepts must be a finite utilisation in
// [0, 1], and any set it accepts must re-encode stably: WriteCSV → LoadCSV →
// WriteCSV yields identical bytes. The seed corpus under
// testdata/fuzz/FuzzLoadCSV holds small valid traces and the NaN rows the
// loader once accepted.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := LoadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for vm := 0; vm < set.NumVMs(); vm++ {
			for r := 0; r < set.Rounds(); r++ {
				s := set.At(vm, r)
				if !inUnit(s.CPU) || !inUnit(s.Mem) {
					t.Fatalf("accepted sample vm %d round %d out of [0,1]: %+v", vm, r, s)
				}
			}
		}
		first := writeForFuzz(t, set)
		again, err := LoadCSV(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("loading a re-written set: %v\n%s", err, first)
		}
		if second := writeForFuzz(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-writing is not stable:\n%s\n%s", first, second)
		}
	})
}

// inUnit reports whether v lies in [0, 1]; it is false for NaN and ±Inf.
func inUnit(v float64) bool { return v >= 0 && v <= 1 }

func writeForFuzz(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatalf("writing an accepted set: %v", err)
	}
	return buf.Bytes()
}
