package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	glapsim "github.com/glap-sim/glap"
	"github.com/glap-sim/glap/internal/glap"
	"github.com/glap-sim/glap/internal/metrics"
)

// The consolidate-2000x4 workload is driven by the Q store that GLAP's
// pre-training produces on the 2000-PM, ratio-4 cell at seed 1. It is
// committed so that every run decodes the same tables instead of spending
// ~30 s re-learning them; -write-checkpoint regenerates it and
// -verify-checkpoint proves that it still matches pre-training and that
// checkpoint + consolidation reproduces the full glapsim.Run.
const (
	checkpointPath   = "perfbench/data/qstore-2000x4-seed1.ckpt"
	checkpointSHA256 = "6bed3089702cc3957044ed01011476ac7b23e5b6eedb67ff0f18d581896eb73f"
	checkpointSeed   = 1
)

// loadCheckpoint reads the committed Q store, refuses it when its digest
// differs from checkpointSHA256 and decodes it with glap.LoadTables.
func loadCheckpoint() (*glap.NodeTables, error) {
	raw, err := os.ReadFile(checkpointPath)
	if err != nil {
		return nil, fmt.Errorf("perfbench: reading checkpoint: %w", err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != checkpointSHA256 {
		return nil, fmt.Errorf("perfbench: checkpoint %s has SHA-256 %s, want %s", checkpointPath, got, checkpointSHA256)
	}
	return glap.LoadTables(bytes.NewReader(raw))
}

// pretrainCheckpoint runs the full glapsim.Run of the checkpoint's cell and
// returns the run's result hash and its shared Q store encoded with
// glap.SaveTables.
func pretrainCheckpoint() (hash string, encoded []byte, err error) {
	w, _ := findWorkload("consolidate-2000x4")
	res, err := glapsim.Run(w.experiment(checkpointSeed, nil))
	if err != nil {
		return "", nil, err
	}
	shared, err := glap.SharedTables(res.Pretrain)
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	if err := glap.SaveTables(&buf, shared); err != nil {
		return "", nil, err
	}
	hash = resultHash(res.Series, metrics.TotalEnergyKWh(res.Cluster), res.BFDBaseline)
	return hash, buf.Bytes(), nil
}

// writeCheckpoint regenerates the committed checkpoint and prints its
// digest, which checkpointSHA256 must then be set to.
func writeCheckpoint() error {
	_, encoded, err := pretrainCheckpoint()
	if err != nil {
		return err
	}
	if err := os.WriteFile(checkpointPath, encoded, 0o644); err != nil {
		return fmt.Errorf("perfbench: writing checkpoint: %w", err)
	}
	sum := sha256.Sum256(encoded)
	fmt.Printf("wrote %s (%d bytes) sha256 %s\n", checkpointPath, len(encoded), hex.EncodeToString(sum[:]))
	return nil
}

// verifyCheckpoint checks that (1) pre-training the cell at the checkpoint
// seed still yields the committed bytes and (2) the checkpoint-driven
// assembly reproduces the full glapsim.Run, pre-training included.
func verifyCheckpoint() error {
	full, encoded, err := pretrainCheckpoint()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(checkpointPath)
	if err != nil {
		return fmt.Errorf("perfbench: reading checkpoint: %w", err)
	}
	if !bytes.Equal(raw, encoded) {
		return fmt.Errorf("perfbench: pre-training at seed %d no longer yields %s", checkpointSeed, checkpointPath)
	}
	w, _ := findWorkload("consolidate-2000x4")
	o, err := w.replicate(checkpointSeed, untraced)
	if err != nil {
		return err
	}
	if o.hash != full {
		return fmt.Errorf("perfbench: checkpoint-driven run hash %s differs from the full glapsim.Run %s", o.hash, full)
	}
	fmt.Printf("checkpoint ok: pre-training reproduces %s; checkpoint-driven run = full glapsim.Run (hash %s): active PMs %d, migrations %d, SLAV %g\n",
		checkpointPath, full, o.activePMs, o.migrations, o.slav)
	return nil
}
