package glapsim

import (
	"math"
	"reflect"
	"testing"
)

// TestRobustGridEquivalenceAndLeaks runs a small loss × latency grid and
// checks the two acceptance gates of the message-passing protocol: at zero
// loss and unit latency the async packing matches the synchronous reference
// within tolerance, and no cell — including 20% loss — leaks reservations
// once the run drains.
func TestRobustGridEquivalenceAndLeaks(t *testing.T) {
	cfg := RobustConfig{
		PMs: 20, Ratio: 2, Rounds: 30, Reps: 2, Seed: 7,
		DropProbs: []float64{0, 0.2},
		Latencies: []int64{1, 30},
	}
	res, err := RunRobust(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}

	// Cell 0 is DropProb 0, latency 1: the equivalence point.
	ideal := res.Cells[0]
	if ideal.Cell.DropProb != 0 || ideal.Cell.Latency != 1 {
		t.Fatalf("unexpected cell order: first cell is %s", ideal.Cell)
	}
	if diff := math.Abs(ideal.Active.Mean - res.SyncActive.Mean); diff > 4 {
		t.Fatalf("async active %.1f vs sync %.1f: difference %.1f exceeds tolerance",
			ideal.Active.Mean, res.SyncActive.Mean, diff)
	}
	if ideal.Active.Mean >= float64(cfg.PMs) {
		t.Fatalf("async protocol did not consolidate: %.1f PMs active", ideal.Active.Mean)
	}
	if ideal.Commits == 0 {
		t.Fatal("no migrations committed through the message path")
	}

	sawLoss := false
	for _, cell := range res.Cells {
		if cell.LeakedReservations != 0 {
			t.Fatalf("cell %s leaked %d reservations", cell.Cell, cell.LeakedReservations)
		}
		if cell.Sent != cell.Delivered+cell.Dropped {
			t.Fatalf("cell %s: transport counters unbalanced: sent=%d delivered=%d dropped=%d",
				cell.Cell, cell.Sent, cell.Delivered, cell.Dropped)
		}
		if cell.Cell.DropProb > 0 && cell.Dropped > 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("loss injection never fired in the lossy cells")
	}
}

// TestRobustDefaults pins the zero-value config fill-in.
func TestRobustDefaults(t *testing.T) {
	cfg := RobustConfig{}.withDefaults()
	if cfg.PMs == 0 || cfg.Ratio == 0 || cfg.Rounds == 0 || cfg.Reps == 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if len(cfg.DropProbs) == 0 || len(cfg.Latencies) == 0 {
		t.Fatalf("grid defaults not filled: %+v", cfg)
	}
}

// TestRobustGridWorkerCountInvariance replays the small robustness grid at
// two replication worker budgets and requires the entire result — sync
// reference and every async cell — to be equal.
func TestRobustGridWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("robust grid in -short mode")
	}
	run := func(workers int) *RobustResult {
		res, err := RunRobust(RobustConfig{
			PMs: 20, Ratio: 2, Rounds: 30, Reps: 2, Seed: 7,
			DropProbs: []float64{0, 0.2}, Latencies: []int64{1, 30},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("robust grid diverged between Workers=1 and Workers=8:\n%+v\nvs\n%+v", a, b)
	}
}
