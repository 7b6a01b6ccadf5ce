package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/harness"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// RunT4 ablates the two semantic requirements on sensing. With safe and
// viable sensing the universal user succeeds on all helpful printers and
// never reports success falsely; the unsafe variant (trusting server ACKs)
// is fooled by a lying printer; the non-viable variant (demanding
// impossible confirmation) starves every candidate of positive indications
// and the user churns forever.
func RunT4(cfg Config) (*harness.Report, error) {
	famSize := 8
	if cfg.Quick {
		famSize = 4
	}
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), famSize)
	if err != nil {
		return nil, fmt.Errorf("T4: %w", err)
	}
	g := &printing.Goal{}
	horizon := 60 * famSize

	type variant struct {
		name string
		mk   func() sensing.Sense
	}
	variants := []variant{
		{"safe+viable", func() sensing.Sense { return printing.Sense(0) }},
		{"unsafe (trusts ACKs)", printing.TrustingSense},
		{"non-viable (paranoid)", func() sensing.Sense { return printing.ParanoidSense(0) }},
	}

	tbl := &harness.Table{
		ID:      "T4",
		Title:   "sensing ablation on the printing goal",
		Columns: []string{"sensing", "success (helpful)", "settled (helpful)", "false positive (lying)", "mean switches"},
		Notes: []string{
			"success = goal achieved across all helpful dialected printers",
			"settled = user stopped switching in the final quarter of the horizon;",
			"  without viability the user churns forever even when it stumbles into printing",
			"false positive = final indication positive while goal unachieved, vs the lying printer",
		},
	}

	for _, v := range variants {
		mkSense := v.mk
		checkpoint := horizon * 3 / 4

		// One trial per helpful server plus a false-positive probe
		// against the lying printer, all in one batch. Each helpful
		// trial's referee, universal user and checkpoint snapshot live
		// in tracks[i]; the User factory runs once, before the engine
		// starts, so the round hook always sees its own trial's user.
		type track struct {
			referee              goal.Tracker
			u                    *universal.CompactUser
			switchesAtCheckpoint int
		}
		tracks := make([]track, famSize)
		trials := make([]system.Trial, famSize+1)
		for srvIdx := 0; srvIdx < famSize; srvIdx++ {
			tr := &tracks[srvIdx]
			tr.referee = goal.NewTracker(g)
			tr.switchesAtCheckpoint = -1
			trials[srvIdx] = system.Trial{
				User: func() (comm.Strategy, error) {
					u, err := universal.NewCompactUser(printing.Enum(fam), mkSense())
					tr.u = u
					return u, err
				},
				Server: func() comm.Strategy {
					return server.Dialected(&printing.Server{}, fam.Dialect(srvIdx))
				},
				World: func() goal.World { return g.NewWorld(goal.Env{Choice: srvIdx}) },
				Config: system.Config{
					MaxRounds: horizon, Seed: cfg.seed(), Record: system.RecordOff,
					OnRoundLive: func(round int, rv comm.RoundView, w goal.World) {
						tr.referee.Observe(round, rv, w)
						if round == checkpoint {
							tr.switchesAtCheckpoint = tr.u.Switches()
						}
					},
				},
			}
		}

		// The liar probe feeds its own copy of the sense round by round:
		// its last indication is the sense's verdict on the whole view.
		liarSlot := famSize
		liar := goal.NewTracker(g)
		liarSense := mkSense()
		liarSense.Reset()
		liarPositive := false
		var liarView comm.RoundView
		trials[liarSlot] = system.Trial{
			User: func() (comm.Strategy, error) {
				return universal.NewCompactUser(printing.Enum(fam), mkSense())
			},
			Server: func() comm.Strategy { return &printing.LyingServer{} },
			World:  func() goal.World { return g.NewWorld(goal.Env{}) },
			Config: system.Config{
				MaxRounds: horizon, Seed: cfg.seed(), Record: system.RecordOff,
				OnRoundLive: func(round int, rv comm.RoundView, w goal.World) {
					liar.Observe(round, rv, w)
					liarView = rv
					liarPositive = liarSense.Observe(&liarView)
				},
			},
		}

		if _, err := system.RunBatch(trials, cfg.batch()); err != nil {
			return nil, fmt.Errorf("T4: %s: %w", v.name, err)
		}

		succ, settled := 0, 0
		var switches []float64
		for srvIdx := 0; srvIdx < famSize; srvIdx++ {
			tr := tracks[srvIdx]
			if tr.referee.Achieved(10) {
				succ++
			}
			if tr.switchesAtCheckpoint >= 0 && tr.u.Switches() == tr.switchesAtCheckpoint {
				settled++
			}
			switches = append(switches, float64(tr.u.Switches()))
		}

		// False-positive probe: is the sensing's final indication
		// positive against the liar despite the goal being unachieved?
		falsePos := 0
		if liarPositive && !liar.Achieved(10) {
			falsePos = 1
		}

		tbl.AddRow(
			v.name,
			harness.Percent(succ, famSize),
			harness.Percent(settled, famSize),
			harness.Percent(falsePos, 1),
			harness.F(harness.Mean(switches)),
		)
	}
	return &harness.Report{Tables: []*harness.Table{tbl}}, nil
}
