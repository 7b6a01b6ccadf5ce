// Package experiments implements the evaluation goalsim runs (README,
// "Running the experiments"): one runner per table (T1–T6) and figure
// (F1–F2). The paper itself is pure theory with no empirical section, so
// each experiment is constructed to test one of its formal claims.
//
// Runners are used by both cmd/goalsim and the root benchmark suite, and
// every runner is deterministic given Config.Seed.
package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/system"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Quick selects reduced sizes (used by unit tests); the default is
	// full scale.
	Quick bool
	// Seed drives all randomness; 0 means 1.
	Seed uint64
	// Parallel bounds the engine worker pool every runner executes its
	// trials on (via system.RunBatch); values < 1 mean GOMAXPROCS.
	// Reports are byte-identical at every setting.
	Parallel int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// batch is the BatchConfig shared by all runners.
func (c Config) batch() system.BatchConfig {
	return system.BatchConfig{Parallelism: c.Parallel}
}

// Runner is a named, self-contained experiment.
type Runner struct {
	// ID is the experiment identifier goalsim -experiment takes (e.g.
	// "T1").
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment and returns its report.
	Run func(cfg Config) (*harness.Report, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "T1", Title: "Universality across a dialect class (Theorem 1, compact)", Run: RunT1},
		{ID: "T2", Title: "Enumeration overhead is essentially necessary", Run: RunT2},
		{ID: "T3", Title: "Finite goals via Levin-style parallel enumeration", Run: RunT3},
		{ID: "T4", Title: "Safety and viability ablation of sensing", Run: RunT4},
		{ID: "T5", Title: "Compatible beliefs: prior-weighted enumeration speedup", Run: RunT5},
		{ID: "T6", Title: "Multi-party symmetric goals reduce to two-party", Run: RunT6},
		{ID: "F1", Title: "Prediction goal: universal users as online learners", Run: RunF1},
		{ID: "F2", Title: "Switch dynamics of the compact universal user", Run: RunF2},
		{ID: "A1", Title: "Ablation: forgivingness (finite paper tray, touchy printer)", Run: RunA1},
		{ID: "A2", Title: "Ablation: sensing patience vs server delay", Run: RunA2},
		{ID: "A3", Title: "Ablation: uniform vs exponential Levin schedules", Run: RunA3},
		{ID: "A4", Title: "Ablation: transfer goal under message loss", Run: RunA4},
		{ID: "A5", Title: "Ablation: adaptive identification vs generic enumeration (control goal)", Run: RunA5},
	}
}

// ByID looks up a runner by its identifier.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
