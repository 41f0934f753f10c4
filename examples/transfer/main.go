// Transfer demonstrates learning transfer (Shafik et al., TCAD'16 — the
// journal lineage of the paper, its ref [12]): a Q-table learnt on one run
// seeds the next, skipping the exploration phase.
//
//	go run ./examples/transfer
//
// The demo trains on one video sequence, saves the learnt table to a file
// (the same format cmd/rtmsim's -save-qtable/-load-qtable use), then plays
// a *different* sequence of the same application twice — cold versus
// transferred — and compares the learning cost.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"qgov/internal/core"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

func main() {
	// Train on sequence A.
	trainTrace := workload.MPEG4At30(100, 2000)
	trainer := core.New(core.DefaultConfig())
	if err := trainer.Calibrate(trainTrace.MaxPerFrame()); err != nil {
		log.Fatal(err)
	}
	train := sim.Run(sim.Config{Trace: trainTrace, Governor: trainer, Seed: 100})
	fmt.Printf("training on %s: %d explorations, %.1f%% misses\n",
		trainTrace.Name, train.Explorations, train.MissRate*100)

	// Persist the learnt table the way a deployment would.
	path := filepath.Join(os.TempDir(), "qgov-transfer.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trainer.Table().Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("q-table saved to %s\n\n", path)

	// A different sequence of the same application (new seed: new scene
	// structure, same statistics).
	playTrace := workload.MPEG4At30(200, 2000)

	// Cold start: full exploration phase.
	cold := core.New(core.DefaultConfig())
	if err := cold.Calibrate(playTrace.MaxPerFrame()); err != nil {
		log.Fatal(err)
	}
	coldRes := sim.Run(sim.Config{Trace: playTrace, Governor: cold, Seed: 200})

	// Transferred start: load the table, begin in exploitation.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	table, err := core.Load(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Transfer = table
	cfg.Epsilon.Epsilon0 = 0.1 // residual exploration only
	cfg.Epsilon.HoldEpochs = 0
	warm := core.New(cfg)
	if err := warm.Calibrate(playTrace.MaxPerFrame()); err != nil {
		log.Fatal(err)
	}
	warmRes := sim.Run(sim.Config{Trace: playTrace, Governor: warm, Seed: 200})

	fmt.Printf("playback on %s (%d frames):\n", playTrace.Name, playTrace.Len())
	fmt.Printf("  cold start:   %3d explorations, %5.1f%% misses, %.1f J\n",
		coldRes.Explorations, coldRes.MissRate*100, coldRes.EnergyJ)
	fmt.Printf("  transferred:  %3d explorations, %5.1f%% misses, %.1f J\n",
		warmRes.Explorations, warmRes.MissRate*100, warmRes.EnergyJ)
	fmt.Printf("\ntransfer removed %.0f%% of the exploration cost\n",
		(1-float64(warmRes.Explorations)/float64(coldRes.Explorations))*100)
}
