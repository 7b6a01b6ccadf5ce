// Package commtest provides tiny reusable strategies and worlds for testing
// the execution engine, referees, sensing and universal users without
// pulling in any domain goal. They have only Step, so every engine test
// that uses them steps its parties through the comm.StepOnly shim.
package commtest

import (
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/xrand"
)

// Silent is a strategy that never sends anything.
type Silent struct{}

var _ comm.Strategy = (*Silent)(nil)

// Reset implements comm.Strategy.
func (*Silent) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (*Silent) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, nil }

// Echo is a server strategy that echoes each party's message back to it,
// with an optional prefix.
type Echo struct {
	Prefix string
}

var _ comm.Strategy = (*Echo)(nil)

// Reset implements comm.Strategy.
func (*Echo) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (e *Echo) Step(in comm.Inbox) (comm.Outbox, error) {
	var out comm.Outbox
	if !in.FromUser.Empty() {
		out.ToUser = comm.Message(e.Prefix) + in.FromUser
	}
	if !in.FromWorld.Empty() {
		out.ToWorld = comm.Message(e.Prefix) + in.FromWorld
	}
	return out, nil
}

// Script is a user strategy that plays a fixed sequence of outboxes, then
// silence. If HaltAfter > 0 it reports Halted once that many steps have run.
type Script struct {
	Outs      []comm.Outbox
	HaltAfter int

	step int
}

var (
	_ comm.Strategy = (*Script)(nil)
	_ comm.Halter   = (*Script)(nil)
)

// Reset implements comm.Strategy.
func (s *Script) Reset(*xrand.Rand) { s.step = 0 }

// Step implements comm.Strategy.
func (s *Script) Step(comm.Inbox) (comm.Outbox, error) {
	defer func() { s.step++ }()
	if s.step < len(s.Outs) {
		return s.Outs[s.step], nil
	}
	return comm.Outbox{}, nil
}

// Halted implements comm.Halter.
func (s *Script) Halted() bool { return s.HaltAfter > 0 && s.step >= s.HaltAfter }

// CountingWorld is a world whose state is the round counter, and which
// records every message it receives from the user and server into its
// snapshot. Snapshot format: "r=<round>;u=<lastUserMsg>;s=<lastServerMsg>".
type CountingWorld struct {
	round    int
	lastUser comm.Message
	lastSrv  comm.Message
}

var _ goal.World = (*CountingWorld)(nil)

// Reset implements comm.Strategy.
func (w *CountingWorld) Reset(*xrand.Rand) {
	w.round = 0
	w.lastUser = ""
	w.lastSrv = ""
}

// Step implements comm.Strategy.
func (w *CountingWorld) Step(in comm.Inbox) (comm.Outbox, error) {
	w.round++
	if !in.FromUser.Empty() {
		w.lastUser = in.FromUser
	}
	if !in.FromServer.Empty() {
		w.lastSrv = in.FromServer
	}
	return comm.Outbox{}, nil
}

// Snapshot implements goal.World.
func (w *CountingWorld) Snapshot() comm.WorldState {
	return comm.WorldState("r=" + strconv.Itoa(w.round) +
		";u=" + string(w.lastUser) + ";s=" + string(w.lastSrv))
}

// ParseCounting extracts the u= field of a CountingWorld snapshot.
func ParseCounting(s comm.WorldState) (userMsg string) {
	for _, part := range strings.Split(string(s), ";") {
		if rest, ok := strings.CutPrefix(part, "u="); ok {
			return rest
		}
	}
	return ""
}

// FlagGoal is a compact goal over CountingWorld: a prefix is acceptable iff
// the world has, at some point, received the message Want from the user.
// Once received the flag persists (the snapshot keeps the last user
// message only, so FlagGoal tracks acceptance itself via prefix scanning).
type FlagGoal struct {
	Want string
}

var (
	_ goal.CompactGoal = (*FlagGoal)(nil)
	_ goal.Forgiving   = (*FlagGoal)(nil)
)

// Name implements goal.Goal.
func (g *FlagGoal) Name() string { return "commtest/flag" }

// NewWorld implements goal.Goal.
func (g *FlagGoal) NewWorld(goal.Env) goal.World { return &CountingWorld{} }

// EnvChoices implements goal.Goal.
func (g *FlagGoal) EnvChoices() int { return 1 }

// Acceptable implements goal.CompactGoal.
func (g *FlagGoal) Acceptable(prefix comm.History) bool {
	for _, s := range prefix.States {
		if ParseCounting(s) == g.Want {
			return true
		}
	}
	return false
}

// ForgivingGoal implements goal.Forgiving.
func (g *FlagGoal) ForgivingGoal() bool { return true }

// ErrStrategy fails its Step with the provided error.
type ErrStrategy struct {
	Err error
}

var _ comm.Strategy = (*ErrStrategy)(nil)

// Reset implements comm.Strategy.
func (*ErrStrategy) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (e *ErrStrategy) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, e.Err }
