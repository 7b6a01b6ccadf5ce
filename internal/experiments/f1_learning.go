package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/learning"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// RunF1 draws the learning curves behind the Juba–Vempala equivalence:
// cumulative mistakes versus round for the halving algorithm (an efficient
// universal user, ≤ ⌈log₂M⌉ mistakes), the generic enumeration universal
// user (conservative learner, ≤ concept-index mistakes) and a fixed wrong
// concept (unbounded mistakes — goal failed). A companion table reports the
// final counts per class size.
func RunF1(cfg Config) (*harness.Report, error) {
	sizes := []int{16, 64, 256, 1024}
	if cfg.Quick {
		sizes = []int{16, 32}
	}
	curveM := sizes[len(sizes)-2] // the figure uses one representative size

	series := &harness.Series{
		ID:     "F1",
		Title:  fmt.Sprintf("cumulative mistakes on the prediction goal (M=%d)", curveM),
		XLabel: "round",
		YLabel: "cumulative mistakes",
	}
	tbl := &harness.Table{
		ID:      "F1t",
		Title:   "final mistake counts per concept-class size",
		Columns: []string{"M", "user", "mistakes", "bound", "achieved"},
		Notes: []string{
			"concept = 3M/4 (so enumeration pays ~3M/4, halving ~log2 M)",
			"achieved = compact goal (finitely many mistakes) within horizon",
		},
	}

	type learner struct {
		name  string
		mk    func(m int) (comm.Strategy, error)
		bound func(m int) string
	}
	learners := []learner{
		{"halving", func(m int) (comm.Strategy, error) {
			return &learning.HalvingUser{M: m}, nil
		}, func(m int) string {
			b := 0
			for v := 1; v < m; v *= 2 {
				b++
			}
			return harness.I(b + 1)
		}},
		{"enumeration", func(m int) (comm.Strategy, error) {
			u, err := universal.NewCompactUser(learning.Enum(m), learning.MistakeSense())
			return u, err
		}, func(m int) string {
			return harness.I(3*m/4 + 1)
		}},
		{"fixed(c=0)", func(m int) (comm.Strategy, error) {
			return &learning.ThresholdUser{Concept: 0}, nil
		}, func(int) string { return "unbounded" }},
	}

	for _, m := range sizes {
		g := &learning.Goal{M: m}
		concept := 3 * m / 4
		horizon := 60 * m
		if horizon < 2000 {
			horizon = 2000
		}
		sampleEvery := horizon / 80
		if sampleEvery < 1 {
			sampleEvery = 1
		}

		// One batch per class size: the three learners race the same
		// environment concurrently, each judged by its own referee and
		// sampling its own curve from the live world.
		type track struct {
			referee goal.Tracker
			w       *learning.World
			xs, ys  []float64
		}
		tracks := make([]*track, len(learners))
		trials := make([]system.Trial, len(learners))
		for li, l := range learners {
			mk := l.mk
			tr := &track{referee: goal.NewTracker(g)}
			tracks[li] = tr
			w, ok := g.NewWorld(goal.Env{Choice: concept}).(*learning.World)
			if !ok {
				return nil, fmt.Errorf("F1: unexpected world type")
			}
			tr.w = w
			trials[li] = system.Trial{
				User:   func() (comm.Strategy, error) { return mk(m) },
				Server: func() comm.Strategy { return server.Obstinate() },
				World:  func() goal.World { return w },
				Config: system.Config{
					MaxRounds: horizon,
					Seed:      cfg.seed(),
					Record:    system.RecordOff,
					OnRoundLive: func(round int, rv comm.RoundView, lw goal.World) {
						tr.referee.Observe(round, rv, lw)
						if m != curveM || round%sampleEvery != 0 {
							return
						}
						tr.xs = append(tr.xs, float64(round))
						tr.ys = append(tr.ys, float64(w.Mistakes()))
					},
				},
			}
		}
		if _, err := system.RunBatch(trials, cfg.batch()); err != nil {
			return nil, fmt.Errorf("F1: M=%d: %w", m, err)
		}

		for li, l := range learners {
			achievedStr := "yes"
			if !tracks[li].referee.Achieved(20) {
				achievedStr = "no"
			}
			tbl.AddRow(harness.I(m), l.name, harness.I(tracks[li].w.Mistakes()), l.bound(m), achievedStr)

			if m == curveM {
				series.Lines = append(series.Lines, harness.Line{Name: l.name, X: tracks[li].xs, Y: tracks[li].ys})
			}
		}
	}
	return &harness.Report{Tables: []*harness.Table{tbl}, Series: []*harness.Series{series}}, nil
}
