package universal

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/enumerate"
	"repro/internal/fst"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
)

// These tests exercise Theorem 1 over a *generic program space* — the full
// finite-state-transducer enumeration — rather than hand-crafted candidate
// families. This is the theorem in the form the paper states it: enumerate
// all (relevant) user strategies, not just the ones a domain expert would
// write.

// greetCodec maps the greet scenario onto FST symbols. Input: whether the
// world confirms ("OK"). Output symbols: silence, or one of three possible
// greetings — only greeting symbol 1 ("HELLO") is understood by the plain
// GreetServer.
func greetCodec() enumerate.SymbolCodec {
	outs := []comm.Message{"", "HOWDY", "HELLO", "HIYA"}
	return enumerate.SymbolCodec{
		NumIn:  2,
		NumOut: len(outs),
		In: func(in comm.Inbox) int {
			if in.FromWorld == "OK" {
				return 1
			}
			return 0
		},
		Out: func(sym int) comm.Outbox {
			if sym <= 0 || sym >= len(outs) {
				return comm.Outbox{}
			}
			return comm.Outbox{ToServer: outs[sym]}
		},
	}
}

func TestFSTGenericUniversality(t *testing.T) {
	t.Parallel()

	// One state, two inputs, four outputs: 16 machines, among them the
	// machine that constantly emits "HELLO". The universal user over
	// this generic space must find it.
	space := fst.Space{NumStates: 1, NumIn: 2, NumOut: 4}
	enum, err := enumerate.FST(space, greetCodec())
	if err != nil {
		t.Fatal(err)
	}
	sense := sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "OK"
	}), 5)
	u, err := NewCompactUser(enum, sense)
	if err != nil {
		t.Fatal(err)
	}

	g := &commtest.GreetGoal{}
	res, err := system.Run(u, &commtest.GreetServer{}, g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: 40 * enum.Size(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatalf("generic FST universal user failed (final index %d of %d)",
			u.Index(), enum.Size())
	}
}

func TestFSTGenericUniversalityLargerSpace(t *testing.T) {
	t.Parallel()

	// Two states, 4096 machines: same goal, bigger haystack. The space
	// contains many machines that emit HELLO only in some states; the
	// sticky world forgives all of them.
	space := fst.Space{NumStates: 2, NumIn: 2, NumOut: 4}
	enum, err := enumerate.FST(space, greetCodec())
	if err != nil {
		t.Fatal(err)
	}
	if enum.Size() != 4096 {
		t.Fatalf("space size = %d", enum.Size())
	}
	sense := sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "OK"
	}), 4)
	u, err := NewCompactUser(enum, sense)
	if err != nil {
		t.Fatal(err)
	}

	g := &commtest.GreetGoal{}
	res, err := system.Run(u, &commtest.GreetServer{}, g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatal("generic FST universal user failed on the 4096-machine space")
	}
}

func TestFSTGenericFindsEarlyMachine(t *testing.T) {
	t.Parallel()

	// Sanity on the enumeration order: some machine well before the end
	// of the space achieves the goal, so convergence must not require
	// visiting all 4096 machines.
	space := fst.Space{NumStates: 2, NumIn: 2, NumOut: 4}
	enum, err := enumerate.FST(space, greetCodec())
	if err != nil {
		t.Fatal(err)
	}
	sense := sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "OK"
	}), 4)
	u, err := NewCompactUser(enum, sense)
	if err != nil {
		t.Fatal(err)
	}
	g := &commtest.GreetGoal{}
	if _, err := system.Run(u, &commtest.GreetServer{}, g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: 5000, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if u.Index() >= 4096 {
		t.Fatalf("user wrapped the whole space: index %d", u.Index())
	}
}
