package system_test

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

// latchGoal accepts every prefix of at least K rounds of a CountingWorld
// run, a latch; it declares goal.Absorbing as absorbing says.
type latchGoal struct {
	K         int
	absorbing bool
}

func (*latchGoal) Name() string                     { return "latch" }
func (*latchGoal) NewWorld(goal.Env) goal.World     { return &commtest.CountingWorld{} }
func (*latchGoal) EnvChoices() int                  { return 1 }
func (g *latchGoal) Acceptable(h comm.History) bool { return h.Len() >= g.K }
func (g *latchGoal) AcceptableWorld(w goal.World) bool {
	return w.(*commtest.CountingWorld).Round() >= g.K
}
func (g *latchGoal) AbsorbingGoal() bool { return g.absorbing }

// chatter is a user that is no comm.Halter: it greets the server every
// round.
type chatter struct{}

func (chatter) Reset(*xrand.Rand)                    {}
func (chatter) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{ToServer: "hi"}, nil }

// counts renders a result's counters.
func counts(r *system.Result) string {
	return fmt.Sprintf("{rounds %d, halted %v, messages %d, last unacceptable %d}",
		r.Rounds, r.Halted, r.Messages, r.LastUnacceptable)
}

func runLatch(t *testing.T, user comm.Strategy, g *latchGoal, rounds int, rec system.RecordPolicy) *system.Result {
	t.Helper()
	res, err := system.Run(user, &commtest.Echo{}, g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: rounds, Seed: 3, Record: rec, Referee: g})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVerdictRunEndsAtFirstAcceptedRound pins the early stop: a
// RecordVerdict run of an absorbing goal ends after its first accepted
// round, counts the rounds and messages of that run only, and reaches the
// full run's verdict at every window.
func TestVerdictRunEndsAtFirstAcceptedRound(t *testing.T) {
	t.Parallel()

	const horizon, k = 50, 6
	g := &latchGoal{K: k, absorbing: true}
	full := runLatch(t, chatter{}, g, horizon, system.RecordOff)
	short := runLatch(t, chatter{}, g, k, system.RecordOff)
	verdict := runLatch(t, chatter{}, g, horizon, system.RecordVerdict)
	if verdict.Rounds != k || verdict.History.Len() != k || verdict.LastUnacceptable != k-1 {
		t.Fatalf("verdict run: %d rounds, history of %d, last unacceptable %d; want %d, %d, %d",
			verdict.Rounds, verdict.History.Len(), verdict.LastUnacceptable, k, k, k-1)
	}
	if verdict.Messages != short.Messages || verdict.LastUnacceptable != full.LastUnacceptable {
		t.Fatalf("verdict run: %d messages, last unacceptable %d; want the %d of its %d rounds and the full run's %d",
			verdict.Messages, verdict.LastUnacceptable, short.Messages, k, full.LastUnacceptable)
	}
	for window := -1; window <= horizon+1; window++ {
		if got, want := verdict.Achieved(window), full.Achieved(window); got != want {
			t.Errorf("Achieved(%d) = %v, full run %v", window, got, want)
		}
	}

	// A goal that declares its acceptance no latch runs its full horizon.
	g.absorbing = false
	if res := runLatch(t, chatter{}, g, horizon, system.RecordVerdict); res.Rounds != horizon {
		t.Errorf("AbsorbingGoal false: %d rounds, want %d", res.Rounds, horizon)
	}
	// So does a run without a referee.
	res, err := system.Run(chatter{}, &commtest.Echo{}, &commtest.CountingWorld{},
		system.Config{MaxRounds: horizon, Record: system.RecordVerdict})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != horizon {
		t.Errorf("no referee: %d rounds, want %d", res.Rounds, horizon)
	}
}

// TestVerdictRefusesRoundHooks pins that RecordVerdict takes no round
// hook, which would miss the rounds an early stop skips.
func TestVerdictRefusesRoundHooks(t *testing.T) {
	t.Parallel()

	g := &latchGoal{K: 6, absorbing: true}
	for name, cfg := range map[string]system.Config{
		"OnRound":     {OnRound: func(int, comm.RoundView, comm.WorldState) {}},
		"OnRoundLive": {OnRoundLive: func(int, comm.RoundView, goal.World) {}},
	} {
		cfg.MaxRounds, cfg.Referee = 50, g
		cfg.Record = system.RecordOff
		if _, err := system.Run(chatter{}, &commtest.Echo{}, g.NewWorld(goal.Env{}), cfg); err != nil {
			t.Fatalf("%s under RecordOff: %v", name, err)
		}
		cfg.Record = system.RecordVerdict
		if res, err := system.Run(chatter{}, &commtest.Echo{}, g.NewWorld(goal.Env{}), cfg); err == nil {
			t.Errorf("%s under RecordVerdict ran %d rounds, want an error", name, res.Rounds)
		}
	}
}

// TestVerdictHalterRunsItsFullCourse pins that a halting user is never
// stopped early: its halt, or the horizon, ends the run, as under
// RecordOff.
func TestVerdictHalterRunsItsFullCourse(t *testing.T) {
	t.Parallel()

	const horizon = 50
	g := &latchGoal{K: 6, absorbing: true}
	for _, haltAfter := range []int{0, 30} {
		mk := func() comm.Strategy {
			return &commtest.Script{Outs: []comm.Outbox{{ToServer: "a"}, {ToServer: "b"}}, HaltAfter: haltAfter}
		}
		off := runLatch(t, mk(), g, horizon, system.RecordOff)
		verdict := runLatch(t, mk(), g, horizon, system.RecordVerdict)
		if verdict.Rounds != off.Rounds || verdict.Halted != off.Halted ||
			verdict.Messages != off.Messages || verdict.LastUnacceptable != off.LastUnacceptable {
			t.Errorf("halt after %d: verdict run %s, RecordOff run %s", haltAfter, counts(verdict), counts(off))
		}
		if want := map[int]int{0: horizon, 30: 30}[haltAfter]; verdict.Rounds != want {
			t.Errorf("halt after %d: %d rounds, want %d", haltAfter, verdict.Rounds, want)
		}
	}
}

// TestVerdictOfNonAbsorbingGoalIsRecordOffRun runs the control goal, whose
// plant can leave the setpoint it reached, under both policies: the
// verdict runs must be the RecordOff runs, round for round.
func TestVerdictOfNonAbsorbingGoalIsRecordOffRun(t *testing.T) {
	t.Parallel()

	const n = 8
	fam, err := control.NewUnitsFamily(n)
	if err != nil {
		t.Fatal(err)
	}
	g := &control.Goal{}
	achieved := 0
	for srv := 0; srv < n; srv++ {
		run := func(rec system.RecordPolicy) *system.Result {
			u, err := universal.NewCompactUser(control.Enum(fam), control.Sense(0))
			if err != nil {
				t.Fatal(err)
			}
			res, err := system.Run(u, server.Dialected(&control.Server{}, fam.Dialect(srv)),
				g.NewWorld(goal.Env{Choice: srv}),
				system.Config{MaxRounds: 300 * n, Seed: 5, Record: rec, Referee: g})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		off, verdict := run(system.RecordOff), run(system.RecordVerdict)
		if verdict.Rounds != off.Rounds || verdict.Messages != off.Messages ||
			verdict.LastUnacceptable != off.LastUnacceptable || verdict.Achieved(10) != off.Achieved(10) {
			t.Errorf("server %d: verdict run %s, RecordOff run %s", srv, counts(verdict), counts(off))
		}
		if off.Achieved(10) {
			achieved++
		}
	}
	// Runs that reach the setpoint are the ones an early stop would cut.
	if achieved == 0 {
		t.Fatal("no control run reached its setpoint")
	}
}
