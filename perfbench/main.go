// Command perfbench is the repository's end-to-end and per-layer benchmark:
// paper-fidelity GLAP and PABFD runs (700 pre-training + 720 consolidation
// rounds) assembled from the same calls glapsim.Run makes, timed phase by
// phase and, in traced runs, layer by layer. See README.md.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It runs from the repository root (run.sh builds it there). The last line
// of standard output is the result object; the line before it is a detailed
// report with the environment, every replication and every check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupReps is the number of set-up-only replications made before the
// measured ones; with one set-up per measured replication they give the
// set-up samples whose median is setup_s.
const setupReps = 20

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: fixes trace, placement and engine streams")
	seconds := flag.Int("seconds", 20, "measurement time; at least one replication always runs")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	writeCkpt := flag.Bool("write-checkpoint", false, "regenerate the consolidate-2000x4 Q-store checkpoint and exit")
	verifyCkpt := flag.Bool("verify-checkpoint", false, "check the committed checkpoint against pre-training and the full glapsim.Run, then exit")
	flag.Parse()

	if err := dispatch(*name, *seed, *seconds, *traceFlag, *writeCkpt, *verifyCkpt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed uint64, seconds, traceFlag int, writeCkpt, verifyCkpt bool) error {
	switch {
	case writeCkpt:
		return writeCheckpoint()
	case verifyCkpt:
		return verifyCheckpoint()
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	env, err := captureEnv()
	if err != nil {
		return err
	}
	rep := measure(w, seed, time.Duration(seconds)*time.Second, traceFlag == 1)
	rep.Env = env
	res := rep.result()
	want := decl.EndToEnd
	if traceFlag == 1 {
		want = decl.PerLayer
	}
	if err := checkDeclared(res.Metrics, want); err != nil {
		return err
	}
	return printJSONLines(rep, res)
}

func printJSONLines(vals ...any) error {
	enc := json.NewEncoder(os.Stdout)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	return nil
}

// declared is the metric part of BENCHMARK.json.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// checkDeclared requires the emitted metrics to be exactly the declared
// ones, with the declared units.
func checkDeclared(got map[string]metric, want []declaredMetric) error {
	var errs []error
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("declared metric %q not measured", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %q measured in %q, declared in %q", d.Name, m.Unit, d.Unit))
		}
	}
	if len(got) != len(want) {
		errs = append(errs, fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d", len(got), len(want)))
	}
	return errors.Join(errs...)
}
