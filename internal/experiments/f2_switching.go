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

// RunF2 traces the internal dynamics of the compact universal user: the
// index of the active candidate strategy per round. The expected shape is a
// staircase — each patience window ends in a negative indication and an
// eviction — that flattens permanently once the matching candidate is
// installed, with the convergence round marked by the referee.
func RunF2(cfg Config) (*harness.Report, error) {
	famSize := 16
	serverIdx := 12
	if cfg.Quick {
		famSize = 6
		serverIdx = 4
	}

	fam, err := dialect.NewWordFamily(printing.Vocabulary(), famSize)
	if err != nil {
		return nil, fmt.Errorf("F2: %w", err)
	}
	g := &printing.Goal{}

	// A single trace run, still dispatched through the batch engine so
	// every runner shares one execution path.
	var u *universal.CompactUser
	var xs, ys []float64
	results, err := system.RunBatch([]system.Trial{{
		User: func() (comm.Strategy, error) {
			var err error
			u, err = universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
			return u, err
		},
		Server: func() comm.Strategy {
			return server.Dialected(&printing.Server{}, fam.Dialect(serverIdx))
		},
		World: func() goal.World { return g.NewWorld(goal.Env{}) },
		Config: system.Config{
			MaxRounds: 50 * famSize,
			Seed:      cfg.seed(),
			Record:    system.RecordOff,
			Referee:   g,
			OnRoundLive: func(round int, _ comm.RoundView, _ goal.World) {
				xs = append(xs, float64(round))
				ys = append(ys, float64(u.Index()))
			},
		},
	}}, cfg.batch())
	if err != nil {
		return nil, fmt.Errorf("F2: %w", err)
	}
	res := results[0]
	if !res.Achieved(10) {
		return nil, fmt.Errorf("F2: universal user failed to converge")
	}
	converged := res.LastUnacceptable
	system.ReleaseResult(res)
	series := &harness.Series{
		ID:     "F2",
		Title:  fmt.Sprintf("active candidate index per round (N=%d, server dialect %d)", famSize, serverIdx),
		XLabel: "round",
		YLabel: "candidate index",
		Lines:  []harness.Line{{Name: "active candidate", X: xs, Y: ys}},
	}

	tbl := &harness.Table{
		ID:      "F2t",
		Title:   "switch-trace summary",
		Columns: []string{"N", "server idx", "switches", "converged round", "final index"},
	}
	tbl.AddRow(
		harness.I(famSize),
		harness.I(serverIdx),
		harness.I(u.Switches()),
		harness.I(converged),
		harness.I(u.Index()%famSize),
	)
	return &harness.Report{Tables: []*harness.Table{tbl}, Series: []*harness.Series{series}}, nil
}
