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
//     (CompactGoal, evaluated on bounded horizons online by the execution
//     engine, system.Config.Referee, or on a recorded history by
//     CompactAchieved).
package goal

import "repro/internal/comm"

// Env is the world's single non-deterministic choice: which probabilistic
// strategy (environment instance) the world runs. Choice selects among a
// goal's countable set of environments; Seed drives the chosen strategy's
// internal randomness.
type Env struct {
	Choice int
	Seed   uint64
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

// WorldJudge is the one optional fast path of the execution engine: a
// compact referee that can judge the live world directly, so a run judged
// by it (system.Config.Referee) never formats a snapshot string.
//
// Contract: AcceptableWorld(w) must equal Acceptable(h) for any history
// h whose last state is w's current Snapshot() — it is the same
// predicate, evaluated before serialization. Implementations that
// receive a world type they do not recognize must fall back to judging
// the snapshot.
type WorldJudge interface {
	// AcceptableWorld reports whether a history ending in w's current
	// state is acceptable.
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
type CompactGoal interface {
	Goal

	// Acceptable reports whether the given prefix is acceptable.
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

// UnacceptableCount returns the number of unacceptable prefixes of h under
// the compact goal's referee — the quantity whose finiteness defines
// achievement, and a natural progress metric for experiments. It examines
// every prefix, so h must be fully recorded (h.Dropped == 0).
func UnacceptableCount(g CompactGoal, h comm.History) int {
	count := 0
	for n := 1; n <= h.Len(); n++ {
		if !g.Acceptable(h.Prefix(n)) {
			count++
		}
	}
	return count
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
