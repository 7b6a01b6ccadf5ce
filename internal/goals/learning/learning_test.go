package learning

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestLabel(t *testing.T) {
	t.Parallel()

	tests := []struct {
		concept, x, want int
	}{
		{0, 0, 1}, {5, 4, 0}, {5, 5, 1}, {5, 9, 1}, {10, 0, 0},
	}
	for _, tt := range tests {
		if got := Label(tt.concept, tt.x); got != tt.want {
			t.Errorf("Label(%d,%d) = %d, want %d", tt.concept, tt.x, got, tt.want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	t.Parallel()

	q, ok := ParseQuery("Q 3 17|RES 2 ok")
	if !ok || q.ID != 3 || q.X != 17 || q.ResID != 2 || q.Res != "ok" {
		t.Fatalf("parsed %+v ok=%v", q, ok)
	}
	for _, bad := range []comm.Message{"", "Q 3 17", "Q x y|RES 2 ok", "Q 3 17|RES 2 weird", "Q 3 17|FOO 2 ok"} {
		if _, ok := ParseQuery(bad); ok {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	t.Parallel()

	w := &World{M: 16, Concept: 5}
	w.Reset(xrand.New(2))
	st, ok := ParseState(w.Snapshot())
	if !ok {
		t.Fatalf("snapshot unparseable: %q", w.Snapshot())
	}
	if st.Answered != 0 || w.Mistakes() != 0 || st.LastOK != -1 {
		t.Fatalf("initial state = %+v", st)
	}
	if _, ok := ParseState("junk"); ok {
		t.Fatal("junk snapshot parsed")
	}
}

func TestWorldGradesAnswers(t *testing.T) {
	t.Parallel()

	w := &World{M: 8, Concept: 4}
	w.Reset(xrand.New(3))

	out, err := w.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	q, ok := ParseQuery(out.ToUser)
	if !ok || q.ID != 1 {
		t.Fatalf("first announcement %q", out.ToUser)
	}

	correct := Label(4, q.X)
	out, err = w.Step(comm.Inbox{FromUser: comm.Message(fmt.Sprintf("P %d %d", q.ID, correct))})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := ParseState(w.Snapshot())
	if st.Answered != 1 || w.Mistakes() != 0 || st.LastOK != 1 {
		t.Fatalf("state after correct answer = %+v", st)
	}
	q2, _ := ParseQuery(out.ToUser)
	if q2.ID != 2 || q2.Res != "ok" {
		t.Fatalf("second announcement %+v", q2)
	}

	wrong := 1 - Label(4, q2.X)
	if _, err = w.Step(comm.Inbox{FromUser: comm.Message(fmt.Sprintf("P %d %d", q2.ID, wrong))}); err != nil {
		t.Fatal(err)
	}
	st, _ = ParseState(w.Snapshot())
	if w.Mistakes() != 1 || st.LastOK != 0 {
		t.Fatalf("state after mistake = %+v", st)
	}
}

func TestWorldIgnoresStaleAndMalformedAnswers(t *testing.T) {
	t.Parallel()

	w := &World{M: 8, Concept: 4}
	w.Reset(xrand.New(3))
	if _, err := w.Step(comm.Inbox{}); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []comm.Message{"P 99 1", "P 1 7", "P 1", "nonsense", "P x 1"} {
		if _, err := w.Step(comm.Inbox{FromUser: msg}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := ParseState(w.Snapshot())
	if st.Answered != 0 {
		t.Fatalf("stale/malformed answers graded: %+v", st)
	}
}

// runLearner executes a user against the learning world and returns final
// mistakes plus whether the compact goal was achieved.
func runLearner(t *testing.T, g *Goal, concept int, usr comm.Strategy, rounds int) (int, bool) {
	t.Helper()
	w, ok := g.NewWorld(goal.Env{Choice: concept}).(*World)
	if !ok {
		t.Fatal("world type")
	}
	res, err := system.Run(usr, server.Obstinate(), w, system.Config{MaxRounds: rounds, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return w.Mistakes(), goal.CompactAchieved(g, res.History, 20)
}

func TestCorrectThresholdUserAchieves(t *testing.T) {
	t.Parallel()

	g := &Goal{M: 32}
	mistakes, achieved := runLearner(t, g, 9, &ThresholdUser{Concept: 9}, 600)
	if mistakes != 0 {
		t.Fatalf("true concept made %d mistakes", mistakes)
	}
	if !achieved {
		t.Fatal("goal not achieved by true concept")
	}
}

func TestWrongThresholdUserFails(t *testing.T) {
	t.Parallel()

	g := &Goal{M: 32}
	mistakes, achieved := runLearner(t, g, 20, &ThresholdUser{Concept: 0}, 600)
	if achieved {
		t.Fatal("wrong fixed concept achieved the goal")
	}
	if mistakes < 10 {
		t.Fatalf("wrong concept should keep erring; mistakes = %d", mistakes)
	}
}

func TestSilentUserFails(t *testing.T) {
	t.Parallel()

	g := &Goal{M: 16}
	w := g.NewWorld(goal.Env{Choice: 3})
	res, err := system.Run(&silentUser{}, server.Obstinate(), w,
		system.Config{MaxRounds: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if goal.CompactAchieved(g, res.History, 20) {
		t.Fatal("silent user achieved the prediction goal")
	}
}

type silentUser struct{}

func (*silentUser) Reset(*xrand.Rand)                    {}
func (*silentUser) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, nil }

func TestHalvingUserMistakeBound(t *testing.T) {
	t.Parallel()

	const m = 256
	g := &Goal{M: m}
	bound := int(math.Ceil(math.Log2(m))) + 1
	for _, concept := range []int{0, 1, 100, 255} {
		mistakes, achieved := runLearner(t, g, concept, &HalvingUser{M: m}, 4000)
		if !achieved {
			t.Fatalf("halving failed on concept %d", concept)
		}
		if mistakes > bound {
			t.Fatalf("halving made %d mistakes on concept %d, bound %d", mistakes, concept, bound)
		}
	}
}

func TestEnumerationUserAchievesWithLinearMistakes(t *testing.T) {
	t.Parallel()

	const m = 32
	g := &Goal{M: m}
	for _, concept := range []int{0, 5, 20} {
		u, err := universal.NewCompactUser(Enum(m), MistakeSense())
		if err != nil {
			t.Fatal(err)
		}
		mistakes, achieved := runLearner(t, g, concept, u, 6000)
		if !achieved {
			t.Fatalf("enumeration learner failed on concept %d", concept)
		}
		// Conservative learner: at most `concept` evictions = mistakes.
		if mistakes > concept+1 {
			t.Fatalf("enumeration learner made %d mistakes on concept %d", mistakes, concept)
		}
	}
}

func TestHalvingBeatsEnumeration(t *testing.T) {
	t.Parallel()

	const m = 128
	const concept = 100
	g := &Goal{M: m}

	u, err := universal.NewCompactUser(Enum(m), MistakeSense())
	if err != nil {
		t.Fatal(err)
	}
	enumMistakes, enumOK := runLearner(t, g, concept, u, 20000)
	halvMistakes, halvOK := runLearner(t, g, concept, &HalvingUser{M: m}, 20000)
	if !enumOK || !halvOK {
		t.Fatalf("achievement: enum=%v halving=%v", enumOK, halvOK)
	}
	if halvMistakes >= enumMistakes {
		t.Fatalf("halving (%d mistakes) should beat enumeration (%d)", halvMistakes, enumMistakes)
	}
}

func TestGoalRefereeCountsMistakes(t *testing.T) {
	t.Parallel()

	// The number of unacceptable prefixes ≈ mistake rounds (plus the
	// warm-up and in-flight grading rounds); it must grow with a wrong
	// concept and stay bounded with the right one.
	g := &Goal{M: 16}
	unacceptable := func(h comm.History) int {
		n := 0
		for k := 1; k <= h.Len(); k++ {
			if !g.Acceptable(h.Prefix(k)) {
				n++
			}
		}
		return n
	}
	w := g.NewWorld(goal.Env{Choice: 8})
	res, err := system.Run(&ThresholdUser{Concept: 8}, server.Obstinate(), w,
		system.Config{MaxRounds: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	right := unacceptable(res.History)

	w2 := g.NewWorld(goal.Env{Choice: 8})
	res2, err := system.Run(&ThresholdUser{Concept: 0}, server.Obstinate(), w2,
		system.Config{MaxRounds: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wrong := unacceptable(res2.History)
	if right >= wrong {
		t.Fatalf("unacceptable prefixes: right=%d wrong=%d", right, wrong)
	}
}
