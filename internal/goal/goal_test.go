package goal_test

import (
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/goal"
	"repro/internal/system"
)

// thresholdGoal is a compact goal over arbitrary histories: a prefix is
// acceptable iff its length is at least K (i.e. the goal "converges" at K).
// The engine judges the live CountingWorld by its round count.
type thresholdGoal struct{ K int }

func (g *thresholdGoal) Name() string                   { return "threshold" }
func (g *thresholdGoal) NewWorld(goal.Env) goal.World   { return &commtest.CountingWorld{} }
func (g *thresholdGoal) EnvChoices() int                { return 1 }
func (g *thresholdGoal) Acceptable(p comm.History) bool { return p.Len() >= g.K }
func (g *thresholdGoal) AcceptableWorld(w goal.World) bool {
	return w.(*commtest.CountingWorld).Round() >= g.K
}

func mkHistory(n int) comm.History {
	states := make([]comm.WorldState, n)
	for i := range states {
		states[i] = comm.WorldState("s")
	}
	return comm.History{States: states}
}

func TestCompactAchieved(t *testing.T) {
	t.Parallel()

	g := &thresholdGoal{K: 5}
	h := mkHistory(20)

	tests := []struct {
		name   string
		window int
		want   bool
	}{
		{"window inside converged region", 10, true},
		{"window covering divergent prefixes", 17, false},
		{"zero window", 0, false},
		{"oversized window", 21, false},
		{"full history minus divergence", 16, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := goal.CompactAchieved(g, h, tt.window); got != tt.want {
				t.Fatalf("CompactAchieved(window=%d) = %v, want %v", tt.window, got, tt.want)
			}
		})
	}
}

func TestCompactAchievedNeverConverges(t *testing.T) {
	t.Parallel()

	g := &thresholdGoal{K: 1000}
	h := mkHistory(50)
	if goal.CompactAchieved(g, h, 10) {
		t.Fatal("achieved despite no acceptable prefix")
	}
}

func TestLastUnacceptable(t *testing.T) {
	t.Parallel()

	g := &thresholdGoal{K: 5}
	if got := goal.LastUnacceptable(g, mkHistory(20)); got != 4 {
		t.Fatalf("LastUnacceptable = %d, want 4", got)
	}
	if got := goal.LastUnacceptable(&thresholdGoal{K: 0}, mkHistory(20)); got != 0 {
		t.Fatalf("LastUnacceptable on always-acceptable goal = %d, want 0", got)
	}
}

func TestCompactAchievedConsistentWithCounts(t *testing.T) {
	t.Parallel()

	// Property: for a monotone referee, CompactAchieved with window w
	// holds iff LastUnacceptable <= len - w, and the engine judging a
	// run of the same length online (system.Config.Referee) reaches both
	// verdicts, also for a window one past the history.
	f := func(k, n uint8, w uint8) bool {
		g := &thresholdGoal{K: int(k % 40)}
		h := mkHistory(int(n%40) + 1)
		window := int(w%40) + 1
		if window > h.Len() {
			window = h.Len()
		}
		got := goal.CompactAchieved(g, h, window)
		want := goal.LastUnacceptable(g, h) <= h.Len()-window
		res, err := system.Run(&commtest.Silent{}, &commtest.Silent{}, g.NewWorld(goal.Env{}),
			system.Config{MaxRounds: h.Len(), Record: system.RecordOff, Referee: g})
		if err != nil {
			t.Fatal(err)
		}
		defer system.ReleaseResult(res)
		return got == want &&
			res.Achieved(window) == got &&
			res.Achieved(window+1) == goal.CompactAchieved(g, h, window+1) &&
			res.LastUnacceptable == goal.LastUnacceptable(g, h) &&
			res.Rounds == h.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlagGoalReferee(t *testing.T) {
	t.Parallel()

	g := &commtest.FlagGoal{Want: "done"}
	h := comm.History{States: []comm.WorldState{
		"r=1;u=;s=", "r=2;u=done;s=", "r=3;u=other;s=",
	}}
	if g.Acceptable(h.Prefix(1)) {
		t.Fatal("prefix 1 should be unacceptable")
	}
	if !g.Acceptable(h.Prefix(2)) {
		t.Fatal("prefix 2 should be acceptable")
	}
	// Flag persists even though later snapshots changed.
	if !g.Acceptable(h) {
		t.Fatal("full history should be acceptable")
	}
}
