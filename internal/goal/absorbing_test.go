package goal_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/goals/fsm"
	"repro/internal/goals/learning"
	"repro/internal/goals/printing"
	"repro/internal/goals/transfer"
	"repro/internal/goals/treasure"
	"repro/internal/xrand"
)

// inboxDriver draws the inbox a goal's world receives in one round: its
// own protocol's messages, other parties' and junk alike.
type inboxDriver func(r *xrand.Rand, env goal.Env) comm.Inbox

// junk is a message no protocol speaks, or a near miss of one.
func junk(r *xrand.Rand) comm.Message {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = " EMIT|01errorpage"[r.Intn(17)]
	}
	return comm.Message(b)
}

// printingInbox emits the target, another document, an error page,
// silence or junk to the printing world, and junk from the user.
func printingInbox(r *xrand.Rand, env goal.Env) comm.Inbox {
	docs := printing.DefaultDocs()
	target := env.Choice % len(docs)
	var in comm.Inbox
	switch r.Intn(6) {
	case 0:
		in.FromServer = comm.Message("EMIT " + docs[target])
	case 1:
		in.FromServer = comm.Message("EMIT " + docs[(target+1+r.Intn(len(docs)-1))%len(docs)])
	case 2:
		in.FromServer = "EMIT " + printing.ErrorPage
	case 3: // silence
	case 4:
		in.FromServer = junk(r)
	case 5:
		in.FromServer = comm.Message("EMIT "+docs[target]) + junk(r)
	}
	if r.Intn(2) == 0 {
		in.FromUser = junk(r)
	}
	return in
}

// TestAbsorbingGoalsLatch refutes goal.Absorbing where it can: every stock
// compact goal that declares it must come with a driver here, and each
// of its worlds, driven by random inboxes over long horizons, must keep
// accepting once AcceptableWorld has accepted, with Acceptable on the
// recorded history agreeing every round. The engine trusts the contract
// to end RecordVerdict runs early.
func TestAbsorbingGoalsLatch(t *testing.T) {
	t.Parallel()

	space, err := fsm.ParseSpace("3x3x2")
	if err != nil {
		t.Fatal(err)
	}
	machine, err := space.Goal(1729)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     goal.CompactGoal
		drive inboxDriver // nil: the goal must not declare goal.Absorbing
	}{
		{"printing", &printing.Goal{}, printingInbox},
		{"printing/paper=3", &printing.Goal{Paper: 3}, printingInbox},
		{"transfer", &transfer.Goal{}, nil},
		{"treasure", &treasure.Goal{}, nil},
		{"control", &control.Goal{}, nil},
		{"learning", &learning.Goal{}, nil},
		{"fsm", machine, nil},
	}
	const seeds, horizon = 24, 4000
	for _, c := range cases {
		a, ok := c.g.(goal.Absorbing)
		declared := ok && a.AbsorbingGoal()
		if c.drive == nil {
			if declared {
				t.Errorf("%s declares goal.Absorbing without a latch driver in this test", c.name)
			}
			continue
		}
		if !declared {
			t.Errorf("%s has a latch driver but does not declare goal.Absorbing", c.name)
			continue
		}
		latched, runs := 0, 0
		for env := 0; env < c.g.EnvChoices(); env++ {
			for seed := uint64(1); seed <= seeds; seed++ {
				r := xrand.New(seed)
				w := c.g.NewWorld(goal.Env{Choice: env})
				w.Reset(r.Split())
				h := comm.History{States: make([]comm.WorldState, 0, horizon)}
				accepted := 0 // the first accepted round, 1-based
				for round := 1; round <= horizon; round++ {
					if _, err := w.Step(c.drive(r, goal.Env{Choice: env})); err != nil {
						t.Fatalf("%s env %d seed %d round %d: %v", c.name, env, seed, round, err)
					}
					h.States = append(h.States, w.Snapshot())
					live := c.g.AcceptableWorld(w)
					if rec := c.g.Acceptable(h); rec != live {
						t.Fatalf("%s env %d seed %d round %d: AcceptableWorld %v, Acceptable on the history %v",
							c.name, env, seed, round, live, rec)
					}
					if accepted > 0 && !live {
						t.Fatalf("%s env %d seed %d: accepted at round %d, rejected at round %d (%s)",
							c.name, env, seed, accepted, round, h.Last())
					}
					if live && accepted == 0 {
						accepted = round
					}
				}
				runs++
				if accepted > 0 {
					latched++
				}
			}
		}
		// A driver that never reaches acceptance tests nothing.
		if latched == 0 {
			t.Errorf("%s: none of %d runs latched", c.name, runs)
		}
		t.Logf("%s: %d of %d runs latched", c.name, latched, runs)
	}
}
