package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// reportTypes maps every committed report to the struct of the experiment
// that writes it.
var reportTypes = map[string]any{
	scaleReportFile:    new(scaleReport),
	scenarioReportFile: new(scenarioReport),
}

// TestCommittedArtifactsMatchSchema decodes every committed root BENCH_*.json
// into its report struct. It fails on a file no experiment writes, on a
// column the struct does not have, and on a non-omitempty field missing
// from any object — so an artifact left behind by older code cannot pass.
func TestCommittedArtifactsMatchSchema(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			report, ok := reportTypes[name]
			if !ok {
				t.Fatalf("%s is written by no experiment", name)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(report); err != nil {
				t.Errorf("decode: %v", err)
			}
			var raw any
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
			for _, m := range missingFields(reflect.TypeOf(report).Elem(), raw, "$") {
				t.Errorf("missing field %s", m)
			}
		})
	}
}

// TestMissingFieldsDetects pins the checker itself on hand-built documents.
func TestMissingFieldsDetects(t *testing.T) {
	var raw any
	doc := `{"gomaxprocs":2,"num_cpu":2,"sizes":[4],"ratio":2,"rounds":1,"seed":1,
		"rows":[{"scenario":"hetero","pms":4,"vms":8,"policy":"glap","rounds":1,
		"slav":0,"slavo":0,"slalm":0,"energy_kwh":0,"migrations":0,"active_pms":1,
		"series_hash":"x"}]}`
	if err := json.Unmarshal([]byte(doc), &raw); err != nil {
		t.Fatal(err)
	}
	got := missingFields(reflect.TypeOf(scenarioReport{}), raw, "$")
	want := []string{"$.gogc", "$.rows[0].failed_placements"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("missingFields = %v, want %v", got, want)
	}
}

// missingFields lists the JSON paths of non-omitempty fields of type t that
// the decoded value v lacks, recursing through embedded structs, nested
// structs, pointers and slices.
func missingFields(t reflect.Type, v any, path string) []string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var out []string
	switch t.Kind() {
	case reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			return nil // type mismatches are the decoder's to report
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() && !f.Anonymous {
				continue
			}
			tag := f.Tag.Get("json")
			if tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if f.Anonymous && name == "" {
				out = append(out, missingFields(f.Type, v, path)...)
				continue
			}
			if name == "" {
				name = f.Name
			}
			fv, present := obj[name]
			if !present {
				if !strings.Contains(","+opts+",", ",omitempty,") {
					out = append(out, path+"."+name)
				}
				continue
			}
			out = append(out, missingFields(f.Type, fv, path+"."+name)...)
		}
	case reflect.Slice, reflect.Array:
		arr, _ := v.([]any)
		for i, e := range arr {
			out = append(out, missingFields(t.Elem(), e, path+"["+strconv.Itoa(i)+"]")...)
		}
	}
	return out
}
