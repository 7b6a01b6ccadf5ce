// Package goal defines goals of communication, the central object of the
// theory.
//
// A goal is introduced by fixing the strategy of a third party — the world,
// capturing "the rest of the system" or "the environment" — and a set of
// acceptable sequences of world states (equivalently, a referee predicate on
// histories of world states). The goal is achieved if the system produces an
// acceptable sequence of world states.
//
// Following the paper, the world makes a single non-deterministic choice of
// a standard probabilistic strategy; here that choice is reified as an Env
// value so experiments can sweep it explicitly.
//
// Two families of goals are distinguished by how the referee decides, and
// a goal's family is the refinement of Goal it implements:
//
//   - Finite goals: the user must halt, and the referee is defined on the
//     finite history at the halting point (FiniteGoal).
//   - Compact goals: the system runs forever, and the referee accepts iff
//     only finitely many prefixes of the history are unacceptable
//     (CompactGoal). A compact referee judges each prefix twice over: on
//     the live world that ends it (AcceptableWorld), which is how the
//     execution engine judges a run online (system.Config.Referee), and
//     on a recorded history (Acceptable), which CompactAchieved and
//     LastUnacceptable evaluate on bounded horizons.
package goal

import "repro/internal/comm"

// Env is the world's single non-deterministic choice: which probabilistic
// strategy (environment instance) the world runs. Choice selects among a
// goal's countable set of environments.
type Env struct {
	Choice int
}

// World is the third party's strategy. Beyond exchanging messages it exposes
// a Snapshot of its instantaneous state; a recording execution stores one
// snapshot per round, and referees judge the resulting history.
type World interface {
	comm.Strategy

	// Snapshot serializes the world's current state. It is called at
	// most once per round, after the world's Step.
	Snapshot() comm.WorldState
}

// WorldJudge is the live-world half of a compact referee, the half the
// execution engine judges a run by (system.Config.Referee), so a judged
// run never formats a snapshot string. Every CompactGoal is one.
type WorldJudge interface {
	// AcceptableWorld reports whether the prefix that ends in w's
	// current state is acceptable. An implementation that receives a
	// world type it does not recognize judges w's Snapshot.
	AcceptableWorld(w World) bool
}

// Goal fixes a world strategy (up to its non-deterministic choice) and gives
// the referee access via the FiniteGoal or CompactGoal refinement.
type Goal interface {
	// Name identifies the goal in tables and logs.
	Name() string

	// NewWorld instantiates a fresh world for the given environment
	// choice. Each execution gets its own world instance.
	NewWorld(env Env) World

	// EnvChoices returns the number of distinct non-deterministic
	// choices the world can make (at least 1). Experiments sweep
	// Env.Choice over [0, EnvChoices).
	EnvChoices() int
}

// FiniteGoal is a goal whose referee decides on the finite history present
// when the user halts.
type FiniteGoal interface {
	Goal

	// Achieved reports whether the finite history is acceptable.
	Achieved(h comm.History) bool
}

// CompactGoal is a goal whose referee marks each prefix of the infinite
// history acceptable or unacceptable; the goal is achieved iff only finitely
// many prefixes are unacceptable.
//
// Contract: the two halves of the referee agree on every run. After round
// n, AcceptableWorld on the live world equals Acceptable on the run's
// recorded n-round history.
type CompactGoal interface {
	Goal
	WorldJudge

	// Acceptable reports whether the given recorded prefix is
	// acceptable.
	Acceptable(prefix comm.History) bool
}

// Forgiving marks goals in which every finite partial history can be
// extended to a successful one — the class the paper focuses on, because it
// lets a universal user recover from arbitrary early missteps.
type Forgiving interface {
	// ForgivingGoal is a marker; implementations simply return true.
	ForgivingGoal() bool
}

// CompactAchieved evaluates a compact goal on a bounded horizon: the goal
// counts as achieved if every prefix in the final window rounds is
// acceptable, i.e. unacceptable prefixes stopped occurring at least window
// rounds before the end. This is the executable stand-in for the paper's
// "finitely many unacceptable prefixes"; window must be positive and at
// most h.Len(). It is the recorded-history reference for the engine's
// online verdict, system.Result.Achieved.
func CompactAchieved(g CompactGoal, h comm.History, window int) bool {
	if window <= 0 || window > h.Len() {
		return false
	}
	for n := h.Len() - window + 1; n <= h.Len(); n++ {
		if !g.Acceptable(h.Prefix(n)) {
			return false
		}
	}
	return true
}

// LastUnacceptable returns the largest prefix length at which the referee
// rejected, or 0 if every prefix of h is acceptable. For an achieved compact
// goal this is the convergence point. It may examine every prefix, so h
// must be fully recorded (h.Dropped == 0). It is the recorded-history
// reference for system.Result.LastUnacceptable.
func LastUnacceptable(g CompactGoal, h comm.History) int {
	for n := h.Len(); n >= 1; n-- {
		if !g.Acceptable(h.Prefix(n)) {
			return n
		}
	}
	return 0
}
