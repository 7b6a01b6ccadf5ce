package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// RunA5 measures the paper's closing observation — "in special cases of
// interest, better performance may be possible" than generic enumeration —
// on the control goal: one adaptive controller identifies the server's
// calibration from a single probe (O(1) rounds for every class size),
// while the enumeration universal user pays per-candidate eviction costs
// that grow with the class.
func RunA5(cfg Config) (*harness.Report, error) {
	sizes := []int{5, 9, 15, 21}
	if cfg.Quick {
		sizes = []int{5, 9}
	}

	tbl := &harness.Table{
		ID:      "A5",
		Title:   "control goal: adaptive identification vs generic enumeration",
		Columns: []string{"class N", "controller", "success", "mean rounds", "worst rounds"},
		Notes: []string{
			"calibration-offset actuator class; sweep over every server in the class",
			"adaptive = one zero-force probe identifies the calibration (class-specific algorithm)",
			"enumeration = generic universal user over per-calibration candidates",
		},
	}

	g := &control.Goal{}
	for _, n := range sizes {
		fam, err := control.NewUnitsFamily(n)
		if err != nil {
			return nil, fmt.Errorf("A5: %w", err)
		}
		horizon := 300 * n

		run := func(mkUser func() (comm.Strategy, error)) (int, []float64, error) {
			trials := make([]system.Trial, n)
			trackers := make([]goal.Tracker, n)
			for srvIdx := 0; srvIdx < n; srvIdx++ {
				trackers[srvIdx] = goal.NewTracker(g)
				trials[srvIdx] = system.Trial{
					User: mkUser,
					Server: func() comm.Strategy {
						return server.Dialected(&control.Server{}, fam.Dialect(srvIdx))
					},
					World: func() goal.World { return g.NewWorld(goal.Env{Choice: srvIdx}) },
					Config: system.Config{
						MaxRounds: horizon, Seed: cfg.seed(),
						Record: system.RecordOff, OnRoundLive: trackers[srvIdx].Observe,
					},
				}
			}
			if _, err := system.RunBatch(trials, cfg.batch()); err != nil {
				return 0, nil, err
			}
			succ := 0
			var rounds []float64
			for _, tr := range trackers {
				if tr.Achieved(10) {
					succ++
					rounds = append(rounds, float64(tr.LastUnacceptable()))
				}
			}
			return succ, rounds, nil
		}

		succE, roundsE, err := run(func() (comm.Strategy, error) {
			return universal.NewCompactUser(control.Enum(fam), control.Sense(0))
		})
		if err != nil {
			return nil, fmt.Errorf("A5: enumeration N=%d: %w", n, err)
		}
		tbl.AddRow(harness.I(n), "enumeration", harness.Percent(succE, n),
			harness.F(harness.Mean(roundsE)), harness.F(harness.Max(roundsE)))

		succA, roundsA, err := run(func() (comm.Strategy, error) {
			return &control.Adaptive{}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("A5: adaptive N=%d: %w", n, err)
		}
		tbl.AddRow(harness.I(n), "adaptive", harness.Percent(succA, n),
			harness.F(harness.Mean(roundsA)), harness.F(harness.Max(roundsA)))
	}
	return &harness.Report{Tables: []*harness.Table{tbl}}, nil
}
