// Package server provides the server-side strategy classes of the model.
//
// The core of the incompatibility problem is that the user faces not a
// single server strategy but a class of possible server strategies, with
// the actual member chosen adversarially. This package builds such classes
// by wrapping a base ("native protocol") server behaviour with
// transformations: dialects (language mismatch), delays, noise, and the
// degenerate unhelpful server that ignores the user entirely.
package server

import (
	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/msgbuf"
	"repro/internal/xrand"
)

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
	return &dialected{inner: inner, d: d}
}

type dialected struct {
	inner comm.Strategy
	d     dialect.Dialect

	// Two-level memo per direction: a single-entry L1 for the command the
	// steady-state loop repeats (one equality compare, no map hash),
	// backed by a capped table for the rest of the cycle. Silence never
	// reaches either, so the L1 holds the command across the quiet
	// rounds between retries. A universal user over a class of N
	// dialects sends N distinct encodings; past the table's cap (N >
	// 128, as in T1's N = 256 class) the rest are translated directly —
	// correct, just unmemoized.
	dec1, enc1 msgbuf.Memo1[comm.Message, comm.Message]
	dec, enc   msgbuf.Table[comm.Message, comm.Message]
}

var _ comm.Strategy = (*dialected)(nil)

func (s *dialected) Reset(r *xrand.Rand) { s.inner.Reset(r) }

// translate returns f(m), memoized in m1 (fast path) and t. Silence is
// returned as is: every dialect maps it to itself.
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
		t.Put(m, v)
	}
	m1.Put(m, v)
	return v
}

func (s *dialected) Step(in comm.Inbox) (comm.Outbox, error) {
	in.FromUser = translate(&s.dec1, &s.dec, s.d.Decode, in.FromUser)
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	out.ToUser = translate(&s.enc1, &s.enc, s.d.Encode, out.ToUser)
	return out, nil
}

// Delayed wraps a server so that its replies to the user are delivered k
// rounds late. Models slow or buffered components; helpful, but punishes
// impatient sensing.
func Delayed(inner comm.Strategy, k int) comm.Strategy {
	if k < 0 {
		k = 0
	}
	return &delayed{inner: inner, ring: ring[comm.Message]{k: k}}
}

// ring is a fixed-size delay line (allocated once, so a long
// execution's delay wrappers allocate nothing after round k): push
// returns the value pushed k calls earlier, reporting ok=false while it
// is still filling. A zero-size ring passes values straight through.
type ring[T any] struct {
	k       int
	buf     []T
	head, n int
}

func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

func (r *ring[T]) push(v T) (T, bool) {
	if r.k == 0 {
		return v, true
	}
	if r.buf == nil {
		r.buf = make([]T, r.k)
	}
	if r.n < r.k {
		// Still filling: the value produced k rounds ago does not exist
		// yet.
		r.buf[(r.head+r.n)%r.k] = v
		r.n++
		var zero T
		return zero, false
	}
	v, r.buf[r.head] = r.buf[r.head], v
	r.head = (r.head + 1) % r.k
	return v, true
}

type delayed struct {
	inner comm.Strategy
	ring  ring[comm.Message]
}

var _ comm.Strategy = (*delayed)(nil)

func (s *delayed) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	s.ring.reset()
}

func (s *delayed) Step(in comm.Inbox) (comm.Outbox, error) {
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	out.ToUser, _ = s.ring.push(out.ToUser) // silence while the line fills
	return out, nil
}

// Slow wraps a server so that its entire output profile (to the user AND
// to the world) is delivered k rounds late — a sluggish component whose
// effects, not just whose replies, lag. Unlike Delayed, Slow also delays
// the goal-relevant action path, which is what makes sensing patience
// matter.
func Slow(inner comm.Strategy, k int) comm.Strategy {
	if k < 0 {
		k = 0
	}
	return &slow{inner: inner, ring: ring[comm.Outbox]{k: k}}
}

type slow struct {
	inner comm.Strategy
	ring  ring[comm.Outbox]
}

var _ comm.Strategy = (*slow)(nil)

func (s *slow) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	s.ring.reset()
}

func (s *slow) Step(in comm.Inbox) (comm.Outbox, error) {
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	out, _ = s.ring.push(out) // the whole profile lags; empty while filling
	return out, nil
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
	return &noisy{inner: inner, p: p}
}

type noisy struct {
	inner comm.Strategy
	p     float64
	r     *xrand.Rand
}

var _ comm.Strategy = (*noisy)(nil)

func (s *noisy) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
}

func (s *noisy) Step(in comm.Inbox) (comm.Outbox, error) {
	if !in.FromUser.Empty() && s.r.Float64() < s.p {
		in.FromUser = ""
	}
	return s.inner.Step(in)
}

// Obstinate returns the canonical unhelpful server: it ignores every
// message and never assists. No user strategy achieves a server-dependent
// goal with it, so universal users are *not* required to succeed against it
// — it exists to test that helpfulness certification rejects it.
func Obstinate() comm.Strategy { return &obstinate{} }

type obstinate struct{}

var _ comm.Strategy = (*obstinate)(nil)

func (*obstinate) Reset(*xrand.Rand)                    {}
func (*obstinate) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, nil }
