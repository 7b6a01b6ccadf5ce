package harness

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/sensing"
	"repro/internal/system"
)

// refSafetyVerdicts is a straightforward full-recording, serial reference
// implementation of CertifySafetyCompact's verdict for one
// (candidate, server, env) triple: record everything, replay the sense
// over the complete view, judge the complete history.
func refSafetyVerdicts(
	t *testing.T,
	g goal.CompactGoal,
	mkSense func() sensing.Sense,
	users interface {
		Strategy(int) comm.Strategy
		Size() int
	},
	mkServer func() comm.Strategy,
	cfg CertConfig,
) []bool {
	t.Helper()
	verdicts := make([]bool, users.Size())
	for i := range verdicts {
		res, err := system.Run(users.Strategy(i), mkServer(),
			g.NewWorld(goal.Env{Choice: 0, Seed: cfg.Seed}),
			system.Config{MaxRounds: cfg.MaxRounds, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		// Eventually positive: no negative indication in the final window.
		sense := mkSense()
		sense.Reset()
		n := len(res.View.Rounds)
		eventually := n >= cfg.window()
		for r := range res.View.Rounds {
			if !sense.Observe(&res.View.Rounds[r]) && r >= n-cfg.window() {
				eventually = false
			}
		}
		verdicts[i] = eventually && !goal.CompactAchieved(g, res.History, cfg.window())
	}
	return verdicts
}

// TestWindowedRetentionMatchesFullRecording is the acceptance check for
// online certification: CertifySafetyCompact — which records nothing,
// letting the engine judge each trial (system.Config.Referee) and
// feeding its sense round by round — must produce exactly the
// per-candidate safety verdicts of a full-recording replay-based
// reference.
func TestWindowedRetentionMatchesFullRecording(t *testing.T) {
	t.Parallel()

	const n = 4
	g, fam, servers := printingFixture(t, n)
	cfg := CertConfig{MaxRounds: 120, Seed: 1, Envs: 1}
	mkSense := func() sensing.Sense { return printing.TrustingSense() }
	enum := printing.Enum(fam)

	// The lying printer is where the trusting sense produces genuine
	// safety violations; a helpful printer is where it must not.
	for name, mkServer := range map[string]func() comm.Strategy{
		"lying":   func() comm.Strategy { return &printing.LyingServer{} },
		"helpful": servers[1],
	} {
		want := refSafetyVerdicts(t, g, mkSense, enum, mkServer, cfg)
		got := make([]bool, enum.Size())
		for _, v := range CertifySafetyCompact(g, mkSense, enum,
			[]func() comm.Strategy{mkServer}, cfg) {
			got[v.Candidate] = true
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s server, candidate %d: online verdict %v, full-recording verdict %v",
					name, i, got[i], want[i])
			}
		}
	}
}
