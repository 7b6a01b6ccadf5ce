// Package treasure implements the password-vault goal used to demonstrate
// that the enumeration overhead of universal users is essentially necessary
// (paper §3: "there exist natural cases in which any universal strategy
// must incur such an overhead").
//
// The server guards a vault with a secret password drawn from [0, N). Only
// the correct password makes the server unlock the vault (a message to the
// world); the server's replies to wrong guesses carry no information about
// the secret. Any user strategy that works against the entire class of N
// password servers must therefore try Ω(N) passwords in the worst case —
// the information-theoretic core of the lower bound.
package treasure

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// DefaultPatience gives each password candidate time for one full
// user→server→world→user feedback loop plus margin.
const DefaultPatience = 5

// Goal is the compact vault goal: a prefix is acceptable iff the vault is
// open. The world's non-deterministic choice is trivial (one environment);
// the adversarial choice lives in the server class.
type Goal struct{}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
)

// Name implements goal.Goal.
func (*Goal) Name() string { return "treasure" }

// EnvChoices implements goal.Goal.
func (*Goal) EnvChoices() int { return 1 }

// NewWorld implements goal.Goal.
func (*Goal) NewWorld(goal.Env) goal.World { return &World{} }

// Acceptable implements goal.CompactGoal.
func (*Goal) Acceptable(prefix comm.History) bool { return prefix.Last() == "vault=open" }

// AcceptableWorld implements goal.WorldJudge: the same predicate as
// Acceptable, judged on the live vault instead of its serialized state.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if vw, ok := w.(*World); ok {
		return vw.open
	}
	return w.Snapshot() == "vault=open"
}

// ForgivingGoal implements goal.Forgiving.
func (*Goal) ForgivingGoal() bool { return true }

// World is the vault: locked until the server sends "UNLOCK", and it tells
// the user the vault's state every round ("LOCKED" / "OPEN").
type World struct {
	open bool
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Reset implements comm.Strategy.
func (w *World) Reset(*xrand.Rand) { w.open = false }

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if in.FromServer == "UNLOCK" {
		w.open = true
	}
	if w.open {
		out.ToUser = "OPEN"
	} else {
		out.ToUser = "LOCKED"
	}
	return nil
}

// Snapshot implements goal.World.
func (w *World) Snapshot() comm.WorldState {
	if w.open {
		return "vault=open"
	}
	return "vault=locked"
}

// Server guards the vault with the given secret. On "pass <k>" it unlocks
// the vault iff k equals the secret; all wrong guesses receive the same
// "DENIED" reply, so replies carry no information beyond failure.
type Server struct {
	Secret int
}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy.
func (*Server) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rest, ok := strings.CutPrefix(string(in.FromUser), "pass ")
	if !ok {
		return nil
	}
	if k, err := strconv.Atoi(rest); err != nil || k != s.Secret {
		out.ToUser = "DENIED"
		return nil
	}
	out.ToUser, out.ToWorld = "GRANTED", "UNLOCK"
	return nil
}

// Candidate is the user strategy that tries one fixed password repeatedly.
type Candidate struct {
	Guess int

	elapsed int
	cmd     comm.Message // "pass <Guess>", built on first send
}

var _ comm.StepperTo = (*Candidate)(nil)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) { c.elapsed = 0 }

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(_ comm.Inbox, out *comm.Outbox) error {
	if c.elapsed%2 == 0 {
		if c.cmd == "" {
			c.cmd = comm.Message("pass " + strconv.Itoa(c.Guess))
		}
		out.ToServer = c.cmd
	}
	c.elapsed++
	return nil
}

// Enum enumerates the n password candidates in numeric order.
func Enum(n int) enumerate.Enumerator {
	return enumerate.FromFunc(fmt.Sprintf("treasure(%d)", n), n, func(i int) comm.Strategy {
		return &Candidate{Guess: i}
	})
}

// Sense is positive while the vault has been observed OPEN within the
// patience window. It is safe (the world reports the real vault state) and
// viable (the correct password opens the vault within the window).
func Sense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	return sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "OPEN"
	}), patience)
}
