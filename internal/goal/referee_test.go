package goal_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
)

func hist(states ...string) comm.History {
	ws := make([]comm.WorldState, len(states))
	for i, s := range states {
		ws[i] = comm.WorldState(s)
	}
	return comm.History{States: ws}
}

// thriftyPrinting derives "print the target AND never exceed a sheet
// budget" from snapshots of the printing world's form
// "target=T;printed=N;done=D".
func printedCount(p comm.History) int {
	for _, part := range strings.Split(string(p.Last()), ";") {
		if rest, ok := strings.CutPrefix(part, "printed="); ok {
			n, err := strconv.Atoi(rest)
			if err == nil {
				return n
			}
		}
	}
	return 0
}

func TestWithRefereeDerivedGoal(t *testing.T) {
	t.Parallel()

	base := &stubCompactGoal{}
	thrifty := goal.WithReferee(base, "printing-thrifty", func(p comm.History) bool {
		return strings.HasSuffix(string(p.Last()), "done=1") && printedCount(p) <= 3
	})
	if thrifty.Name() != "printing-thrifty" {
		t.Fatal("derived goal metadata wrong")
	}
	if thrifty.EnvChoices() != base.EnvChoices() {
		t.Fatal("derived goal env choices wrong")
	}

	frugal := hist("target=t;printed=2;done=1")
	waste := hist("target=t;printed=9;done=1")
	undone := hist("target=t;printed=1;done=0")
	if !thrifty.Acceptable(frugal) {
		t.Fatal("frugal success rejected")
	}
	if thrifty.Acceptable(waste) {
		t.Fatal("wasteful success accepted")
	}
	if thrifty.Acceptable(undone) {
		t.Fatal("unfinished prefix accepted")
	}
	// The base referee is unchanged.
	if !base.Acceptable(waste) {
		t.Fatal("base goal corrupted by derivation")
	}
}

type stubCompactGoal struct{}

func (*stubCompactGoal) Name() string                 { return "stub" }
func (*stubCompactGoal) NewWorld(goal.Env) goal.World { return nil }
func (*stubCompactGoal) EnvChoices() int              { return 2 }
func (*stubCompactGoal) Acceptable(p comm.History) bool {
	return strings.HasSuffix(string(p.Last()), "done=1")
}
