package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// RunT1 measures Theorem 1 for the compact printing goal: the universal
// user must succeed with every dialected printer in the class, while the
// fixed-protocol baseline succeeds only on its own dialect and the oracle
// (told the dialect) bounds the achievable rounds from below.
func RunT1(cfg Config) (*harness.Report, error) {
	sizes := []int{4, 16, 64, 256}
	if cfg.Quick {
		sizes = []int{4, 8}
	}

	tbl := &harness.Table{
		ID:      "T1",
		Title:   "printing goal: success across the dialected-printer class",
		Columns: []string{"N", "user", "success", "mean rounds", "max rounds"},
		Notes: []string{
			"success = achieved compact goal within horizon, over all N servers",
			"rounds = convergence round (last unacceptable prefix)",
		},
	}

	g := &printing.Goal{}
	for _, n := range sizes {
		fam, err := dialect.NewWordFamily(printing.Vocabulary(), n)
		if err != nil {
			return nil, fmt.Errorf("T1: family size %d: %w", n, err)
		}
		horizon := 50 * n

		type userKind struct {
			name string
			mk   func(serverIdx int) (comm.Strategy, error)
		}
		kinds := []userKind{
			{"fixed(dialect 0)", func(int) (comm.Strategy, error) {
				return &printing.Candidate{D: fam.Dialect(0)}, nil
			}},
			{"oracle", func(i int) (comm.Strategy, error) {
				return &printing.Candidate{D: fam.Dialect(i)}, nil
			}},
			{"universal", func(int) (comm.Strategy, error) {
				u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
				return u, err
			}},
		}

		for _, kind := range kinds {
			mk := kind.mk
			trials := make([]system.Trial, n)
			for srvIdx := 0; srvIdx < n; srvIdx++ {
				trials[srvIdx] = system.Trial{
					User: func() (comm.Strategy, error) { return mk(srvIdx) },
					Server: func() comm.Strategy {
						return server.Dialected(&printing.Server{}, fam.Dialect(srvIdx))
					},
					World: func() goal.World {
						return g.NewWorld(goal.Env{Choice: srvIdx % g.EnvChoices()})
					},
					Config: system.Config{
						MaxRounds: horizon, Seed: cfg.seed(),
						Record: system.RecordOff, Referee: g,
					},
				}
			}
			results, err := system.RunBatch(trials, cfg.batch())
			if err != nil {
				return nil, fmt.Errorf("T1: %s (N=%d): %w", kind.name, n, err)
			}

			succ := 0
			var rounds []float64
			for _, res := range results {
				if res.Achieved(10) {
					succ++
					rounds = append(rounds, float64(res.LastUnacceptable))
				}
				system.ReleaseResult(res)
			}
			tbl.AddRow(
				harness.I(n),
				kind.name,
				harness.Percent(succ, n),
				harness.F(harness.Mean(rounds)),
				harness.F(harness.Max(rounds)),
			)
		}
	}
	return &harness.Report{Tables: []*harness.Table{tbl}}, nil
}
