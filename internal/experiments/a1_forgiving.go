package experiments

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// RunA1 ablates forgivingness, the structural assumption the paper adopts
// ("we focus exclusively on forgiving goals"). A touchy printer wastes a
// sheet on every misunderstood command; with a finite tray the printing
// goal stops being forgiving, and the universal user's probing — harmless
// under Theorem 1's assumptions — destroys achievability. The oracle,
// which never probes, still succeeds on one sheet.
func RunA1(cfg Config) (*harness.Report, error) {
	famSize := 16
	serverIdx := 12
	trays := []int{0, 64, 32, 16, 8}
	if cfg.Quick {
		famSize = 8
		serverIdx = 6
		trays = []int{0, 16, 4}
	}

	fam, err := dialect.NewWordFamily(printing.Vocabulary(), famSize)
	if err != nil {
		return nil, fmt.Errorf("A1: %w", err)
	}

	tbl := &harness.Table{
		ID:      "A1",
		Title:   "forgivingness ablation: touchy printer with a finite paper tray",
		Columns: []string{"tray", "forgiving", "user", "achieved", "sheets used", "error pages"},
		Notes: []string{
			fmt.Sprintf("class size %d, server dialect %d; every misunderstood command burns a sheet", famSize, serverIdx),
			"tray 0 = unlimited; with a small tray universal probing exhausts the paper first",
			"Theorem 1 is stated for forgiving goals — this is why",
		},
	}

	// Two trials per tray size (universal, oracle), all in one batch.
	type a1run struct {
		g       *printing.Goal
		w       goal.World
		referee goal.Tracker
		user    string
	}
	runs := make([]a1run, 2*len(trays))
	trials := make([]system.Trial, 0, 2*len(trays))
	for i, paper := range trays {
		g := &printing.Goal{Docs: []string{"target"}, Paper: paper}
		w := g.NewWorld(goal.Env{})
		run := &runs[2*i]
		*run = a1run{g: g, w: w, referee: goal.NewTracker(g), user: "universal"}
		trials = append(trials, system.Trial{
			User: func() (comm.Strategy, error) {
				return universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
			},
			Server: func() comm.Strategy {
				return server.Dialected(&printing.TouchyServer{}, fam.Dialect(serverIdx))
			},
			World: func() goal.World { return w },
			Config: system.Config{
				MaxRounds: 50 * famSize, Seed: cfg.seed(),
				Record: system.RecordOff, OnRoundLive: run.referee.Observe,
			},
		})

		// Oracle user: no probing, one command, one sheet.
		g2 := &printing.Goal{Docs: []string{"target"}, Paper: paper}
		w2 := g2.NewWorld(goal.Env{})
		run2 := &runs[2*i+1]
		*run2 = a1run{g: g2, w: w2, referee: goal.NewTracker(g2), user: "oracle"}
		trials = append(trials, system.Trial{
			User: func() (comm.Strategy, error) {
				return &printing.Candidate{D: fam.Dialect(serverIdx), Resend: 1000}, nil
			},
			Server: func() comm.Strategy {
				return server.Dialected(&printing.TouchyServer{}, fam.Dialect(serverIdx))
			},
			World: func() goal.World { return w2 },
			Config: system.Config{
				MaxRounds: 80, Seed: cfg.seed(),
				Record: system.RecordOff, OnRoundLive: run2.referee.Observe,
			},
		})
	}
	if _, err := system.RunBatch(trials, cfg.batch()); err != nil {
		return nil, fmt.Errorf("A1: %w", err)
	}

	for _, run := range runs {
		forgiving := "yes"
		if !run.g.ForgivingGoal() {
			forgiving = "no"
		}
		sheets, errPages := countSheets(run.w)
		tbl.AddRow(trayLabel(run.g.Paper), forgiving, run.user,
			yesNo(run.referee.Achieved(10)), harness.I(sheets), harness.I(errPages))
	}
	return &harness.Report{Tables: []*harness.Table{tbl}}, nil
}

func trayLabel(paper int) string {
	if paper == 0 {
		return "unlimited"
	}
	return harness.I(paper)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func countSheets(w goal.World) (sheets, errorPages int) {
	pw, ok := w.(*printing.World)
	if !ok {
		return 0, 0
	}
	for _, doc := range pw.Printout() {
		sheets++
		if strings.Contains(doc, printing.ErrorPage) {
			errorPages++
		}
	}
	return sheets, errorPages
}
