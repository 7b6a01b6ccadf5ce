// Package server provides the server-side strategy classes of the model.
//
// The core of the incompatibility problem is that the user faces not a
// single server strategy but a class of possible server strategies, with
// the actual member chosen adversarially. This package builds such classes
// by wrapping a base ("native protocol") server behaviour with
// transformations: dialects (language mismatch), fixed or drifting,
// slowness, noise and the adversaries of adversary.go, plus the
// degenerate unhelpful server that ignores the user entirely. The
// wrappers are building blocks; scenario.Registry.Bind is the one place
// that stacks them into a class member, in a fixed order.
//
// Every wrapper steps in place (comm.StepperTo): it resolves the server it
// wraps once, at construction, and passes the caller's outbox down the
// stack, so a message crosses each layer as a field write instead of a
// returned copy.
package server

import (
	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/msgbuf"
	"repro/internal/xrand"
)

// wrapped is the server a wrapper wraps, resolved once to its in-place
// step (through shim when it has only Step).
type wrapped struct {
	inner comm.Strategy
	step  comm.StepperTo
	shim  comm.StepOnly
}

func (w *wrapped) wrap(inner comm.Strategy) {
	w.inner = inner
	w.step = comm.InPlace(inner, &w.shim)
}

// Dialected wraps a server whose native protocol operates on plain messages
// so that its wire language on the user channel is the given dialect: user
// messages are decoded before the inner server sees them, and the inner
// server's replies are encoded before they reach the user. The
// server-to-world channel is left untouched — it is "physical", not
// linguistic.
//
// Dialects are pure, deterministic message functions that map silence to
// silence (the dialect.Dialect contract), so the wrapper passes empty
// messages straight through and memoizes the rest: a user that retries
// the same command every other round — the steady state of every
// enumeration strategy — pays for its encoding once instead of every
// round.
func Dialected(inner comm.Strategy, d dialect.Dialect) comm.Strategy {
	s := &dialected{d: d}
	s.wrap(inner)
	return s
}

type dialected struct {
	wrapped
	d dialect.Dialect

	// Two-level memo per direction: a single-entry L1 for the command the
	// steady-state loop repeats (one equality compare, no map hash),
	// backed by a capped table for the rest of the cycle. Silence never
	// reaches either, so the L1 holds the command across the quiet
	// rounds between retries. The table takes a translation only once
	// the L1 has held a different message, so a direction that only
	// ever sees one message allocates no map. A universal user over a
	// class of N dialects sends N distinct encodings; past the table's
	// cap (N > 128, as in T1's N = 256 class) the rest are translated
	// directly — correct, just unmemoized.
	dec1, enc1 msgbuf.Memo1[comm.Message, comm.Message]
	dec, enc   msgbuf.Table[comm.Message, comm.Message]
}

var _ comm.StepperTo = (*dialected)(nil)

func (s *dialected) Reset(r *xrand.Rand) { s.inner.Reset(r) }

// translate returns f(m), memoized in m1 (fast path) and t. Silence is
// returned as is: every dialect maps it to itself. The first message m1
// holds is kept there alone; t starts with the second distinct one (the
// first is translated again if it comes back).
func translate(m1 *msgbuf.Memo1[comm.Message, comm.Message], t *msgbuf.Table[comm.Message, comm.Message], f func(comm.Message) comm.Message, m comm.Message) comm.Message {
	if m.Empty() {
		return m
	}
	if v, ok := m1.Get(m); ok {
		return v
	}
	v, ok := t.Get(m)
	if !ok {
		v = f(m)
		if m1.Full() {
			t.Put(m, v)
		}
	}
	m1.Put(m, v)
	return v
}

func (s *dialected) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *dialected) StepTo(in comm.Inbox, out *comm.Outbox) error {
	in.FromUser = translate(&s.dec1, &s.dec, s.d.Decode, in.FromUser)
	if err := s.step.StepTo(in, out); err != nil {
		return err
	}
	out.ToUser = translate(&s.enc1, &s.enc, s.d.Encode, out.ToUser)
	return nil
}

// Slow wraps a server so that its entire output profile (to the user AND
// to the world) is delivered k rounds late — a sluggish component whose
// effects, not just whose replies, lag, which is what makes sensing
// patience matter.
func Slow(inner comm.Strategy, k int) comm.Strategy {
	if k < 0 {
		k = 0
	}
	s := &slow{k: k}
	s.wrap(inner)
	return s
}

// slow keeps a delay line of k outboxes, allocated on first use, so a
// long execution allocates nothing after round k. Slot i holds the
// outbox produced k rounds ago, or silence while the line fills.
type slow struct {
	wrapped
	k, i int
	line []comm.Outbox
}

var _ comm.StepperTo = (*slow)(nil)

func (s *slow) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	clear(s.line)
	s.i = 0
}

func (s *slow) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *slow) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if err := s.step.StepTo(in, out); err != nil {
		return err
	}
	if s.k > 0 {
		if s.line == nil {
			s.line = make([]comm.Outbox, s.k)
		}
		// Exchanged field by field: *out was only just written.
		p := &s.line[s.i]
		if s.i++; s.i == s.k {
			s.i = 0
		}
		out.ToUser, p.ToUser = p.ToUser, out.ToUser
		out.ToServer, p.ToServer = p.ToServer, out.ToServer
		out.ToWorld, p.ToWorld = p.ToWorld, out.ToWorld
	}
	return nil
}

// Noisy wraps a server so that each message from the user is dropped
// (replaced by silence) independently with probability p. Helpfulness is
// preserved for p < 1 on forgiving goals because retries eventually get
// through.
func Noisy(inner comm.Strategy, p float64) comm.Strategy {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := &noisy{p: p}
	s.wrap(inner)
	return s
}

type noisy struct {
	wrapped
	p float64
	r *xrand.Rand
}

var _ comm.StepperTo = (*noisy)(nil)

func (s *noisy) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
}

func (s *noisy) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *noisy) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if !in.FromUser.Empty() && s.r.Float64() < s.p {
		in.FromUser = ""
	}
	return s.step.StepTo(in, out)
}

// Obstinate returns the canonical unhelpful server: it ignores every
// message and never assists. No user strategy achieves a server-dependent
// goal with it, so universal users are *not* required to succeed against it
// — it exists to test that helpfulness certification rejects it.
func Obstinate() comm.Strategy { return &obstinate{} }

type obstinate struct{}

var _ comm.StepperTo = (*obstinate)(nil)

func (*obstinate) Reset(*xrand.Rand)                         {}
func (s *obstinate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }
func (*obstinate) StepTo(comm.Inbox, *comm.Outbox) error     { return nil }
