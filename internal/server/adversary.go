package server

import (
	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/msgbuf"
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
	return &misleading{inner: inner, p: p}
}

type misleading struct {
	inner    comm.Strategy
	p        float64
	r        *xrand.Rand
	lastGood comm.Message
}

var _ comm.Strategy = (*misleading)(nil)

func (s *misleading) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.lastGood = ""
}

func (s *misleading) Step(in comm.Inbox) (comm.Outbox, error) {
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	if !out.ToWorld.Empty() && !out.ToUser.Empty() {
		s.lastGood = out.ToUser
	}
	if s.r.Float64() < s.p {
		// Suppress the action, replay the stale claim of progress.
		return comm.Outbox{ToUser: s.lastGood}, nil
	}
	return out, nil
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
	return &byzantine{inner: inner, budget: budget}
}

type byzantine struct {
	inner  comm.Strategy
	budget int
	left   int
	r      *xrand.Rand
}

var _ comm.Strategy = (*byzantine)(nil)

func (s *byzantine) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.left = s.budget
}

func (s *byzantine) Step(in comm.Inbox) (comm.Outbox, error) {
	corrupt := s.left > 0 && s.r.Float64() < 0.5
	if corrupt {
		s.left--
		if !in.FromUser.Empty() {
			in.FromUser = byzantineJunk[s.r.Intn(len(byzantineJunk))]
		}
	}
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	if corrupt {
		out.ToUser = byzantineJunk[s.r.Intn(len(byzantineJunk))]
	}
	return out, nil
}

// DriftingDialected wraps a server so that its wire language on the user
// channel is a dialect that drifts mid-session: starting from dialect
// `start` of the family, each round with probability p the dialect is
// re-drawn uniformly from the family (a Markov switch — the draw may land
// on the current dialect). With p = 0 it is step-for-step identical to
// Dialected(inner, fam.Dialect(start)). Like Dialected, silence passes
// through untranslated, other translations are memoized per dialect
// (dialects are pure), and the server→world channel is left untouched.
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
	return &drifting{
		inner: inner, fam: fam, start: start, p: p, cur: start,
		dec1: make([]msgbuf.Memo1[comm.Message, comm.Message], n),
		enc1: make([]msgbuf.Memo1[comm.Message, comm.Message], n),
		dec:  make([]msgbuf.Table[comm.Message, comm.Message], n),
		enc:  make([]msgbuf.Table[comm.Message, comm.Message], n),
	}
}

type drifting struct {
	inner comm.Strategy
	fam   *dialect.Family
	start int
	p     float64
	cur   int
	r     *xrand.Rand

	// Per-dialect translation memos, indexed by the current dialect.
	// Dialects are pure, so entries stay valid across switches and Resets.
	dec1, enc1 []msgbuf.Memo1[comm.Message, comm.Message]
	dec, enc   []msgbuf.Table[comm.Message, comm.Message]
}

var _ comm.Strategy = (*drifting)(nil)

func (s *drifting) Reset(r *xrand.Rand) {
	s.inner.Reset(r)
	if r != nil {
		s.r = r.Split()
	} else {
		s.r = xrand.New(0)
	}
	s.cur = s.start
}

func (s *drifting) Step(in comm.Inbox) (comm.Outbox, error) {
	if s.p > 0 && s.r.Float64() < s.p {
		s.cur = s.r.Intn(s.fam.Size())
	}
	d := s.fam.Dialect(s.cur)
	in.FromUser = translate(&s.dec1[s.cur], &s.dec[s.cur], d.Decode, in.FromUser)
	out, err := s.inner.Step(in)
	if err != nil {
		return comm.Outbox{}, err
	}
	out.ToUser = translate(&s.enc1[s.cur], &s.enc[s.cur], d.Encode, out.ToUser)
	return out, nil
}

// AdversarySpec declares an adversarial wrapper stack over a class member
// as data, mirroring StackSpec: zero values mean "absent", so the zero
// AdversarySpec is the identity. The declared order is fixed — Byzantine
// innermost, then Misleading — matching the model: corruption happens at
// the server's mouth, misleading is the policy it wraps around whatever
// comes out. (Dialect drift is not part of this spec because it needs the
// goal's dialect family; the registry applies it to the class member
// before the adversary stack.)
type AdversarySpec struct {
	// Byzantine is the corrupted-round budget; 0 applies no wrapper.
	Byzantine int

	// Mislead is the per-round probability of suppressing the server's
	// action while claiming past progress; 0 applies no wrapper.
	Mislead float64
}

// Adversary wraps a class member in the adversarial transforms the spec
// declares.
func Adversary(inner comm.Strategy, a AdversarySpec) comm.Strategy {
	if a.Byzantine > 0 {
		inner = Byzantine(inner, a.Byzantine)
	}
	if a.Mislead > 0 {
		inner = Misleading(inner, a.Mislead)
	}
	return inner
}
