// Command glapbench regenerates every table and figure of the paper's
// evaluation (Section V): Figure 5 (Q-value convergence), Figures 6-10
// (packing, overloads, migrations, cumulative migrations, migration energy)
// and Table I (SLAV). Scale is configurable; the paper's full grid is
//
//	glapbench -exp all -sizes 500,1000,2000 -ratios 2,3,4 -rounds 720 -reps 20
//
// which takes a long while on a laptop — the defaults run a reduced grid
// with the same experimental structure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
)

// Default output paths of the experiments that write a committed report.
// The artifact schema test decodes each committed file into its report type.
const (
	scaleReportFile    = "BENCH_scale.json"
	scenarioReportFile = "BENCH_scenarios.json"
)

// experimentNames lists every name -exp accepts.
var experimentNames = []string{"f5", "f6", "f7", "f8", "f9", "f10", "t1", "all", "robust", "scale", "scenarios"}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: f5, f6, f7, f8, f9, f10, t1, all (f5-f10 and t1), robust (async consolidation under loss × latency), scale (per-stage wall time across cluster sizes and worker counts), or scenarios (crash-churn / hetero / topology / real-trace suite)")
	sizes := flag.String("sizes", "100", "comma-separated cluster sizes")
	ratios := flag.String("ratios", "2,3,4", "comma-separated VM:PM ratios")
	rounds := flag.Int("rounds", 240, "consolidation rounds (2 simulated minutes each)")
	reps := flag.Int("reps", 5, "replications per grid cell (paper: 20)")
	seed := flag.Uint64("seed", 1, "master seed")
	workers := flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "also write per-figure CSV files into this directory")
	drops := flag.String("drops", "0,0.1,0.2", "comma-separated message-loss probabilities for -exp robust")
	lats := flag.String("lats", "1,30,90", "comma-separated one-way message latencies for -exp robust")
	scaleOut := flag.String("scale-out", scaleReportFile, "output path for the -exp scale report")
	scaleSizesFlag := flag.String("scale-sizes", "", "comma-separated cluster sizes for -exp scale (empty = built-in grid up to 20k PMs)")
	scenOut := flag.String("scen-out", scenarioReportFile, "output path for the -exp scenarios report")
	scenSizes := flag.String("scen-sizes", "40,80", "comma-separated cluster sizes for -exp scenarios")
	scenRounds := flag.Int("scen-rounds", 60, "consolidation rounds per scenario run for -exp scenarios")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Every list flag is parsed before anything runs, whether or not the
	// selected experiments read it, so a bad value never surfaces halfway
	// through a long run.
	want, expErr := parseExperiments(*exp)
	sizeList, sizesErr := parseNonEmptyInts("sizes", *sizes)
	ratioList, ratiosErr := parseNonEmptyInts("ratios", *ratios)
	dropList, dropsErr := parseNonEmptyFloats("drops", *drops)
	latList, latsErr := parseNonEmptyInt64s("lats", *lats)
	scenSizeList, scenSizesErr := parseNonEmptyInts("scen-sizes", *scenSizes)
	scaleGrid, scaleSizesErr := parseInts("scale-sizes", *scaleSizesFlag)
	if err := errors.Join(expErr, sizesErr, ratiosErr, dropsErr, latsErr, scenSizesErr, scaleSizesErr); err != nil {
		usageError(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	grid := glapsim.Grid{
		Sizes:   sizeList,
		Ratios:  ratioList,
		Rounds:  *rounds,
		Reps:    *reps,
		Seed:    *seed,
		Workers: *workers,
	}

	all := want["all"]

	if want["scale"] {
		// -scale-sizes wins; otherwise an explicitly passed -sizes selects
		// the subset (so `-exp scale -sizes 500,2000` works like every other
		// experiment), and with neither the built-in grid up to 20k runs.
		if len(scaleGrid) == 0 {
			sizesSet := false
			flag.Visit(func(f *flag.Flag) { sizesSet = sizesSet || f.Name == "sizes" })
			if sizesSet {
				scaleGrid = sizeList
			}
		}
		runScale(*seed, *scaleOut, scaleGrid)
		if len(want) == 1 {
			return
		}
	}

	if want["scenarios"] {
		runScenarios(*seed, *scenRounds, *workers, scenSizeList, *scenOut)
		if len(want) == 1 {
			return
		}
	}

	if want["robust"] {
		runRobust(glapsim.RobustConfig{
			PMs:       grid.Sizes[0],
			Ratio:     grid.Ratios[0],
			Rounds:    *rounds,
			Reps:      *reps,
			Seed:      *seed,
			DropProbs: dropList,
			Latencies: latList,
			Workers:   *workers,
		})
		if len(want) == 1 {
			return
		}
	}

	var conv []*glapsim.ConvergenceResult
	if all || want["f5"] {
		conv = runF5(grid)
	}

	needGrid := all || want["f6"] || want["f7"] || want["f8"] || want["f9"] || want["f10"] || want["t1"]
	if !needGrid {
		return
	}
	fmt.Printf("\n== running grid: sizes=%v ratios=%v rounds=%d reps=%d ==\n",
		grid.Sizes, grid.Ratios, grid.Rounds, grid.Reps)
	cells, order, err := glapsim.RunGrid(grid)
	if err != nil {
		log.Fatal(err)
	}

	if all || want["f6"] {
		printF6(cells, order)
	}
	if all || want["f7"] {
		printF7(cells, order)
	}
	if all || want["f8"] {
		printF8(cells, order)
	}
	if all || want["f9"] {
		printF9(grid, cells, order)
	}
	if all || want["f10"] {
		printF10(cells, order)
	}
	if all || want["t1"] {
		printT1(grid, cells)
	}
	if *csvDir != "" {
		if err := writeCSVDir(*csvDir, grid, cells, order, conv); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote CSV files to %s\n", *csvDir)
	}
}

// usageError reports a bad command line and exits with status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "glapbench:", err)
	os.Exit(2)
}

// parseExperiments splits a comma-separated -exp value into the set of
// selected experiments. It rejects an empty selection and any name not in
// experimentNames, so a misspelt or retired experiment fails instead of
// running nothing.
func parseExperiments(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !slices.Contains(experimentNames, e) {
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s)", e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-exp: no experiment named (valid: %s)", strings.Join(experimentNames, ", "))
	}
	return want, nil
}

// parseList parses the comma-separated list of flag name, skipping empty
// items. An item parse rejects is an error naming the flag.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %v", name, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseNonEmpty is parseList for a flag that must hold at least one value:
// the experiments index or range over it, and an empty list would silently
// fall back to nothing.
func parseNonEmpty[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	xs, err := parseList(name, s, parse)
	if err == nil && len(xs) == 0 {
		err = fmt.Errorf("-%s %q: want at least one comma-separated value", name, s)
	}
	return xs, err
}

func parseInts(name, s string) ([]int, error) { return parseList(name, s, strconv.Atoi) }

func parseNonEmptyInts(name, s string) ([]int, error) { return parseNonEmpty(name, s, strconv.Atoi) }

func parseNonEmptyFloats(name, s string) ([]float64, error) {
	return parseNonEmpty(name, s, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
}

func parseNonEmptyInt64s(name, s string) ([]int64, error) {
	return parseNonEmpty(name, s, func(f string) (int64, error) { return strconv.ParseInt(f, 10, 64) })
}

func runF5(grid glapsim.Grid) []*glapsim.ConvergenceResult {
	pms := grid.Sizes[0]
	fmt.Printf("== Figure 5: Q-value convergence (cosine similarity), %d PMs ==\n", pms)
	fmt.Println("   learning phase (WOG) then aggregation phase (WG)")
	res, err := glapsim.RunConvergence(pms, grid.Ratios, glap.Config{}, grid.Seed, 10)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "round\tphase")
	for _, r := range res {
		fmt.Fprintf(w, "\tratio %d", r.Ratio)
	}
	fmt.Fprintln(w)
	if len(res) > 0 {
		for i, round := range res[0].Rounds {
			phase := "WOG"
			if round >= res[0].AggStart {
				phase = "WG"
			}
			fmt.Fprintf(w, "%d\t%s", round, phase)
			for _, r := range res {
				if i < len(r.Cosine) {
					fmt.Fprintf(w, "\t%.4f", r.Cosine[i])
				} else {
					fmt.Fprint(w, "\t-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return res
}

func header(w *tabwriter.Writer, cols ...string) {
	fmt.Fprintln(w, strings.Join(cols, "\t"))
}

func printF6(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 6: fraction of overloaded/active PMs and packing vs BFD ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "frac overl. (mean)", "active (median)", "BFD baseline")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.4f\t%.0f\t%.0f\n",
			c, s.FracOverloaded.Mean, s.Active.Median, s.BFDBaseline.Median)
	}
	w.Flush()
}

func printF7(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 7: number of overloaded PMs (median [p10, p90] per round) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median", "p10", "p90", "mean")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.2f\n",
			c, s.Overloaded.Median, s.Overloaded.P10, s.Overloaded.P90, s.Overloaded.Mean)
	}
	w.Flush()
}

func printF8(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 8: number of migrations (per-round median [p10, p90]; total) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median/round", "p10", "p90", "total (median)")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.0f\n",
			c, s.MigrationsPerRound.Median, s.MigrationsPerRound.P10,
			s.MigrationsPerRound.P90, s.TotalMigrations.Median)
	}
	w.Flush()
}

func printF9(grid glapsim.Grid, cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	// The paper plots cumulative migrations for the 1000-node cluster; we
	// use the middle configured size.
	size := grid.Sizes[len(grid.Sizes)/2]
	fmt.Printf("\n== Figure 9: cumulative migrations over time (%d PMs) ==\n", size)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "round")
	var series []*glapsim.CellStats
	for _, c := range order {
		if c.PMs == size {
			fmt.Fprintf(w, "\t%d/%s", c.Ratio, c.Policy)
			series = append(series, cells[c])
		}
	}
	fmt.Fprintln(w)
	if len(series) > 0 {
		n := len(series[0].CumMigrations)
		step := n / 12
		if step == 0 {
			step = 1
		}
		for i := step - 1; i < n; i += step {
			fmt.Fprintf(w, "%d", i+1)
			for _, s := range series {
				fmt.Fprintf(w, "\t%.0f", s.CumMigrations[i])
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}

func printF10(cells map[glapsim.Cell]*glapsim.CellStats, order []glapsim.Cell) {
	fmt.Println("\n== Figure 10: energy overhead of migrations (kJ, median [p10, p90]) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header(w, "cell", "median", "p10", "p90")
	for _, c := range order {
		s := cells[c]
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\n", c, s.EnergyKJ.Median, s.EnergyKJ.P10, s.EnergyKJ.P90)
	}
	w.Flush()
}

func printT1(grid glapsim.Grid, cells map[glapsim.Cell]*glapsim.CellStats) {
	fmt.Println("\n== Table I: SLAV for various cluster sizes and workload ratios ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "size-ratio")
	for _, p := range glapsim.Policies {
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, size := range grid.Sizes {
		for _, ratio := range grid.Ratios {
			fmt.Fprintf(w, "%d-%d", size, ratio)
			for _, p := range glapsim.Policies {
				s, ok := cells[glapsim.Cell{PMs: size, Ratio: ratio, Policy: p}]
				if !ok {
					fmt.Fprint(w, "\t-")
					continue
				}
				fmt.Fprintf(w, "\t%.3g", s.SLAV.Median)
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}
