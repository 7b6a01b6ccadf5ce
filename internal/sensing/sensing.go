// Package sensing implements the feedback notion of the theory.
//
// Sensing is a predicate of the history of the portion of the system visible
// to the user — its view. A sensing function produces Boolean indications
// that a universal user consumes: positive ("keep going / accept") or
// negative ("this pairing is not working").
//
// Two properties make sensing useful as feedback (paper §3):
//
//   - Safety: for compact goals, negative indications are (eventually)
//     obtained whenever the current pairing does not lead to achieving the
//     goal; for finite goals, positive indications are only obtained on
//     acceptable histories.
//   - Viability: for compact goals, some pairing yields only positive
//     indications while achieving the goal; for finite goals, some user
//     strategy obtains a positive indication with every helpful server.
//
// Safety and viability are semantic properties relating a sensing function
// to a goal and a server class; they are certified empirically by
// internal/harness. This package provides the Sense interface and generic
// combinators. A sense reads each round by pointer, so a chain of
// combinators passes one view down instead of copying it at every layer.
package sensing

import "repro/internal/comm"

// Sense is an incremental sensing function. The engine (or a universal user)
// feeds it the user's view one round at a time; after each round it reports
// the current Boolean indication.
//
// Implementations accumulate whatever summary of the view they need. Reset
// discards that summary; universal users call Reset when they switch to a
// new candidate strategy so that indications refer to the current pairing.
type Sense interface {
	// Reset clears accumulated view state.
	Reset()

	// Observe consumes the next round of the user's view and returns the
	// indication after that round: true = positive, false = negative.
	// It must not retain rv or write through it.
	Observe(rv *comm.RoundView) bool
}

// Func adapts a stateless predicate over the most recent round to a Sense.
type Func func(rv *comm.RoundView) bool

var _ Sense = (*funcSense)(nil)

type funcSense struct {
	f Func
	v bool
}

// New wraps a per-round predicate into a Sense whose indication is the
// predicate's value on the latest round.
func New(f Func) Sense { return &funcSense{f: f} }

func (s *funcSense) Reset() { s.v = false }
func (s *funcSense) Observe(rv *comm.RoundView) bool {
	s.v = s.f(rv)
	return s.v
}

// Sticky wraps a sense so that once a positive indication is produced it
// never reverts to negative. Useful for "goal reached" detectors on
// monotone goals.
func Sticky(inner Sense) Sense { return &sticky{inner: inner} }

type sticky struct {
	inner Sense
	hit   bool
}

var _ Sense = (*sticky)(nil)

func (s *sticky) Reset() {
	s.inner.Reset()
	s.hit = false
}

func (s *sticky) Observe(rv *comm.RoundView) bool {
	if s.inner.Observe(rv) {
		s.hit = true
	}
	return s.hit
}

// Patience wraps a sense so that a negative indication is only reported
// after the inner sense has been negative for n consecutive rounds. This is
// the standard way to give each candidate strategy time to act before a
// universal user evicts it.
func Patience(inner Sense, n int) Sense {
	if n < 1 {
		n = 1
	}
	return &patience{inner: inner, n: n}
}

type patience struct {
	inner  Sense
	n      int
	negRun int
}

var _ Sense = (*patience)(nil)

func (p *patience) Reset() {
	p.inner.Reset()
	p.negRun = 0
}

func (p *patience) Observe(rv *comm.RoundView) bool {
	if p.inner.Observe(rv) {
		p.negRun = 0
		return true
	}
	p.negRun++
	return p.negRun < p.n
}

// Const is a sense with a fixed indication — the degenerate (unsafe or
// non-viable) sensing used in ablation experiments.
func Const(v bool) Sense { return constSense(v) }

type constSense bool

var _ Sense = constSense(false)

func (constSense) Reset()                         {}
func (c constSense) Observe(*comm.RoundView) bool { return bool(c) }

// Replay feeds an entire view through a (freshly Reset) sense and returns
// the final indication. Used by finite-goal runners that judge a completed
// attempt.
func Replay(s Sense, v comm.View) bool {
	s.Reset()
	verdict := false
	for i := range v.Rounds {
		verdict = s.Observe(&v.Rounds[i])
	}
	return verdict
}
