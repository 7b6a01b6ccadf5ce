package commtest

import (
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/xrand"
)

// GreetWorld is a toy compact-goal world: once the server reports "greeted",
// the world confirms "OK" to the user on every subsequent round. Snapshot is
// "greeted=0" or "greeted=1".
type GreetWorld struct {
	greeted bool
}

var _ goal.World = (*GreetWorld)(nil)

// Reset implements comm.Strategy.
func (w *GreetWorld) Reset(*xrand.Rand) { w.greeted = false }

// Step implements comm.Strategy.
func (w *GreetWorld) Step(in comm.Inbox) (comm.Outbox, error) {
	if in.FromServer == "greeted" {
		w.greeted = true
	}
	if w.greeted {
		return comm.Outbox{ToUser: "OK"}, nil
	}
	return comm.Outbox{}, nil
}

// Snapshot implements goal.World.
func (w *GreetWorld) Snapshot() comm.WorldState {
	if w.greeted {
		return "greeted=1"
	}
	return "greeted=0"
}

// GreetGoal is the compact goal over GreetWorld: a prefix is acceptable iff
// the world has been greeted.
type GreetGoal struct{}

var (
	_ goal.CompactGoal = (*GreetGoal)(nil)
	_ goal.Forgiving   = (*GreetGoal)(nil)
)

// Name implements goal.Goal.
func (*GreetGoal) Name() string { return "commtest/greet" }

// NewWorld implements goal.Goal.
func (*GreetGoal) NewWorld(goal.Env) goal.World { return &GreetWorld{} }

// EnvChoices implements goal.Goal.
func (*GreetGoal) EnvChoices() int { return 1 }

// Acceptable implements goal.CompactGoal.
func (*GreetGoal) Acceptable(prefix comm.History) bool {
	return prefix.Last() == "greeted=1"
}

// ForgivingGoal implements goal.Forgiving.
func (*GreetGoal) ForgivingGoal() bool { return true }

// GreetServer is the native-protocol server for GreetWorld: on the plain
// command "HELLO" from the user it replies "WELCOME" and reports "greeted"
// to the world. Wrap it in server.Dialected to build a language-mismatch
// class.
type GreetServer struct{}

var _ comm.Strategy = (*GreetServer)(nil)

// Reset implements comm.Strategy.
func (*GreetServer) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (*GreetServer) Step(in comm.Inbox) (comm.Outbox, error) {
	if in.FromUser == "HELLO" {
		return comm.Outbox{ToUser: "WELCOME", ToWorld: "greeted"}, nil
	}
	return comm.Outbox{}, nil
}

// SecretWorld is a toy finite-goal world holding a secret integer. On a
// user message "guess <i>" it replies "HIT" or "MISS" and remembers whether
// it was ever hit. Snapshot is "hit=0" or "hit=1".
type SecretWorld struct {
	Secret int

	hit bool
}

var _ goal.World = (*SecretWorld)(nil)

// Reset implements comm.Strategy.
func (w *SecretWorld) Reset(*xrand.Rand) { w.hit = false }

// Step implements comm.Strategy.
func (w *SecretWorld) Step(in comm.Inbox) (comm.Outbox, error) {
	msg := string(in.FromUser)
	if rest, ok := strings.CutPrefix(msg, "guess "); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n == w.Secret {
			w.hit = true
			return comm.Outbox{ToUser: "HIT"}, nil
		}
		return comm.Outbox{ToUser: "MISS"}, nil
	}
	return comm.Outbox{}, nil
}

// Snapshot implements goal.World.
func (w *SecretWorld) Snapshot() comm.WorldState {
	if w.hit {
		return "hit=1"
	}
	return "hit=0"
}

// SecretGoal is the finite goal over SecretWorld: achieved iff the world
// was hit by the time the user halted.
type SecretGoal struct{ Secret int }

var _ goal.FiniteGoal = (*SecretGoal)(nil)

// Name implements goal.Goal.
func (*SecretGoal) Name() string { return "commtest/secret" }

// NewWorld implements goal.Goal.
func (g *SecretGoal) NewWorld(goal.Env) goal.World { return &SecretWorld{Secret: g.Secret} }

// EnvChoices implements goal.Goal.
func (*SecretGoal) EnvChoices() int { return 1 }

// Achieved implements goal.FiniteGoal.
func (*SecretGoal) Achieved(h comm.History) bool { return h.Last() == "hit=1" }
