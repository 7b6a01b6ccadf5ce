package goal

import "repro/internal/comm"

// RefereeFunc is a standalone compact-referee predicate over history
// prefixes. WithReferee turns one into a goal over an existing goal's
// worlds.
type RefereeFunc func(prefix comm.History) bool

// derivedGoal swaps a compact goal's referee while keeping its worlds.
type derivedGoal struct {
	base CompactGoal
	name string
	ref  RefereeFunc
}

var _ CompactGoal = (*derivedGoal)(nil)

// WithReferee returns a compact goal with the same name-space of worlds as
// base but judged by the given referee. This is how composed predicates
// become goals: the world dynamics are reused, only the notion of success
// changes.
func WithReferee(base CompactGoal, name string, ref RefereeFunc) CompactGoal {
	return &derivedGoal{base: base, name: name, ref: ref}
}

// Name implements Goal.
func (d *derivedGoal) Name() string { return d.name }

// NewWorld implements Goal.
func (d *derivedGoal) NewWorld(env Env) World { return d.base.NewWorld(env) }

// EnvChoices implements Goal.
func (d *derivedGoal) EnvChoices() int { return d.base.EnvChoices() }

// Acceptable implements CompactGoal.
func (d *derivedGoal) Acceptable(prefix comm.History) bool { return d.ref(prefix) }
