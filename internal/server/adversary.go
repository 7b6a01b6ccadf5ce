package server

import (
	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/xrand"
)

// This file builds the adversarial half of the server taxonomy. The
// wrappers here are still deterministic functions of the trial seed —
// each one splits its own generator off the stream handed to Reset, after
// passing that stream to the wrapped server untouched — so adversarial
// sweeps stay byte-reproducible and a wrapper applied with a zero
// parameter is step-for-step identical to the unwrapped server.
//
// The taxonomy, in the paper's terms:
//
//   - Misleading lies on the user channel within sensing limits: safe
//     (world-observing) sensing still sees the truth, while feedback that
//     trusts the server's own claims is fooled (the T4 obstruction).
//   - Byzantine corrupts a bounded number of rounds arbitrarily; the
//     budget makes it eventually-honest, so universal users must still
//     succeed, just later.
//   - DriftingDialected re-draws its dialect mid-session by a Markov
//     switch, generalizing the fixed-dialect class F2: the user's
//     inferred member can be invalidated at any round.

// Misleading wraps a server so that, independently each round with
// probability p, the server's goal-relevant action is suppressed and its
// reply replaced by the last reply that accompanied a real action — the
// server claims past progress while doing nothing. The lie lives entirely
// on the server→user channel: the world sees either the true action or
// silence, never a fabricated one, which is what keeps the adversary
// within the paper's sensing limits (safe sensing reads the world's
// channel and cannot be fooled; only feedback that trusts the server's
// own claims is). With p = 1 the server never acts and the goal is
// infeasible; for p < 1 retries eventually land on forgiving goals.
func Misleading(inner comm.Strategy, p float64) comm.Strategy {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := &misleading{p: p}
	s.wrap(inner)
	return s
}

type misleading struct {
	wrapped
	p        float64
	r        *xrand.Rand
	lastGood comm.Message
}

var _ comm.StepperTo = (*misleading)(nil)

func (s *misleading) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.lastGood = ""
}

func (s *misleading) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *misleading) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if err := s.step.StepTo(in, out); err != nil {
		return err
	}
	if !out.ToWorld.Empty() && !out.ToUser.Empty() {
		s.lastGood = out.ToUser
	}
	if s.r.Float64() < s.p {
		// Suppress the action, replay the stale claim of progress.
		out.ToUser, out.ToServer, out.ToWorld = s.lastGood, "", ""
	}
	return nil
}

// byzantineJunk is the fixed pool of garbage messages a Byzantine round
// draws from. A small static pool (rather than generated strings) keeps
// the hot path allocation-free and the garbage representative: syntax the
// stock protocols never emit.
var byzantineJunk = [...]comm.Message{
	"bz0", "bz1", "bz2", "bz3", "bz4", "bz5", "bz6", "bz7",
}

// Byzantine wraps a server with a budget of corrupted rounds. While
// budget remains, each round is independently corrupted with probability
// 1/2 (spending one unit): the user's message is replaced by garbage
// before the inner server sees it, and the inner server's reply is
// replaced by garbage before the user sees it. The world channel carries
// whatever the inner server does with the garbage it received — the
// corruption is linguistic, not physical. Once the budget is spent the
// server is honest forever, so a universal user facing a helpful inner
// server must still succeed; the budget only delays it.
func Byzantine(inner comm.Strategy, budget int) comm.Strategy {
	if budget < 0 {
		budget = 0
	}
	s := &byzantine{budget: budget}
	s.wrap(inner)
	return s
}

type byzantine struct {
	wrapped
	budget int
	left   int
	r      *xrand.Rand
}

var _ comm.StepperTo = (*byzantine)(nil)

func (s *byzantine) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.left = s.budget
}

func (s *byzantine) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *byzantine) StepTo(in comm.Inbox, out *comm.Outbox) error {
	corrupt := s.left > 0 && s.r.Float64() < 0.5
	if corrupt {
		s.left--
		if !in.FromUser.Empty() {
			in.FromUser = byzantineJunk[s.r.Intn(len(byzantineJunk))]
		}
	}
	if err := s.step.StepTo(in, out); err != nil {
		return err
	}
	if corrupt {
		out.ToUser = byzantineJunk[s.r.Intn(len(byzantineJunk))]
	}
	return nil
}

// DriftingDialected wraps a server so that its wire language on the user
// channel is a dialect that drifts mid-session: starting from dialect
// `start` of the family, each round with probability p the dialect is
// re-drawn uniformly from the family (a Markov switch — the draw may land
// on the current dialect). It keeps one Dialected per family member over
// the shared inner server and steps the current one, so with p = 0 it is
// step-for-step identical to Dialected(inner, fam.Dialect(start)), and
// each member's translation memo stays valid across switches and Resets
// (dialects are pure).
func DriftingDialected(inner comm.Strategy, fam *dialect.Family, start int, p float64) comm.Strategy {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n := fam.Size()
	start %= n
	if start < 0 {
		start += n
	}
	s := &drifting{members: make([]dialected, n), start: start, p: p, cur: start}
	for i := range s.members {
		s.members[i].d = fam.Dialect(i)
		s.members[i].wrap(inner)
	}
	return s
}

type drifting struct {
	members []dialected
	start   int
	p       float64
	cur     int
	r       *xrand.Rand
}

var _ comm.StepperTo = (*drifting)(nil)

func (s *drifting) Reset(r *xrand.Rand) {
	s.members[0].Reset(r) // every member resets the one inner server
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.cur = s.start
}

func (s *drifting) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *drifting) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if s.p > 0 && s.r.Float64() < s.p {
		s.cur = s.r.Intn(len(s.members))
	}
	return s.members[s.cur].StepTo(in, out)
}
