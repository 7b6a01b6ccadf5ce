// Package comm defines the communication model of Goldreich, Juba and
// Sudan's "A Theory of Goal-Oriented Communication" (PODC 2011).
//
// The model is a synchronous system of three parties — a user, a server and
// a world (the environment / referee's view of "the rest of the system").
// Each party is described by a strategy: a probabilistic function taking an
// internal state and an incoming message profile to a new state and an
// outgoing message profile. This package defines the message types, the
// strategy interface and the recorded artifacts of an execution (world-state
// histories and user views) that goals and sensing functions are defined
// over. A strategy may also step in place (StepperTo), writing its
// messages into an outbox its caller owns; the engine prefers that form.
package comm

import (
	"fmt"

	"repro/internal/xrand"
)

// Message is a single unit of communication on a directed channel during one
// round. The empty message denotes silence; strategies are free to ascribe
// structure (tokens, framing) to non-empty messages.
type Message string

// Empty reports whether the message is silence.
func (m Message) Empty() bool { return len(m) == 0 }

// Inbox is the profile of messages a party receives at the start of a round,
// indexed by sender. A party never receives from itself; the corresponding
// field is ignored by the engine.
type Inbox struct {
	FromUser   Message
	FromServer Message
	FromWorld  Message
}

// Outbox is the profile of messages a party emits at the end of a round,
// indexed by recipient. A party never sends to itself; the corresponding
// field is ignored by the engine.
type Outbox struct {
	ToUser   Message
	ToServer Message
	ToWorld  Message
}

// Strategy is a party's behaviour: a (probabilistic) state-transition
// function from (internal state, incoming message profile) to (new state,
// outgoing message profile). Implementations carry their state internally;
// Reset returns the strategy to an initial state and installs the source of
// randomness for the run.
//
// The same Strategy value is reused across executions by calling Reset, so
// implementations must not retain state across Reset calls.
type Strategy interface {
	// Reset prepares the strategy for a fresh execution. The provided
	// generator is the strategy's only permitted source of randomness;
	// a nil generator indicates the strategy should behave
	// deterministically (implementations may keep a private default).
	Reset(r *xrand.Rand)

	// Step consumes the messages delivered this round and returns the
	// messages to deliver next round. An error aborts the execution.
	Step(in Inbox) (Outbox, error)
}

// StepperTo is the optional in-place form of Strategy.Step, in the style
// of io.WriterTo. StepTo consumes the round's inbox, which arrives by
// value so no callee can write its caller's copy, and writes the round's
// messages into out: the caller hands over a zeroed outbox, the callee
// sets only the fields it sends, and on error the caller discards *out.
//
// Every strategy the program builds steps in place, and its Step is the
// one-line Step(s, in). Test fixtures (internal/commtest's among them) and
// goalbench's timing wrappers have only Step, and the engine steps those
// through a StepOnly shim. The engine resolves each party to its StepTo
// once per run, so an outbox is written once where it lives instead of
// being returned in registers, spilled and copied at every layer: a
// whole-struct copy loads 16 bytes at a time from fields just stored 8
// bytes at a time, which the CPU cannot forward from its store buffer.
type StepperTo interface {
	StepTo(in Inbox, out *Outbox) error
}

// Step is Strategy.Step for a strategy that steps in place.
func Step(s StepperTo, in Inbox) (out Outbox, err error) {
	if err = s.StepTo(in, &out); err != nil {
		out = Outbox{}
	}
	return
}

// StepOnly adapts a strategy that has only Step to StepperTo.
type StepOnly struct{ Strategy Strategy }

// StepTo implements StepperTo with one call of the strategy's Step. The
// result is stored field by field, straight from the registers it is
// returned in.
func (a *StepOnly) StepTo(in Inbox, out *Outbox) error {
	o, err := a.Strategy.Step(in)
	out.ToUser, out.ToServer, out.ToWorld = o.ToUser, o.ToServer, o.ToWorld
	return err
}

// InPlace resolves s to its own StepTo or, when s has only Step, points
// shim at s and returns it. Callers resolve once and step many times.
func InPlace(s Strategy, shim *StepOnly) StepperTo {
	if t, ok := s.(StepperTo); ok {
		return t
	}
	shim.Strategy = s
	return shim
}

// Halter is implemented by user strategies for finite goals: once Halted
// reports true the execution engine stops the run. The engine checks Halted
// after each Step.
type Halter interface {
	Halted() bool
}

// WorldState is an opaque encoding of the world's instantaneous state.
// Referees — the predicates that define goals — are functions of sequences
// of world states, so anything a referee must see has to be serialized into
// this encoding by the world strategy.
type WorldState string

// History is the sequence of world states produced by an execution, one per
// completed round. Referee predicates are defined over histories.
//
// A partial history materializes only its trailing States and counts the
// discarded leading rounds in Dropped; Len still reports the logical
// length. An unrecorded execution leaves every round dropped, and an
// online referee judges each prefix as a one-state history. Referees that
// judge a history by its recent states — every stock goal in this
// repository serializes cumulative world state into each snapshot — are
// unaffected by the missing prefix.
type History struct {
	// States holds the world state recorded after each round; States[i]
	// is the state at the end of round Dropped+i (0-based).
	States []WorldState

	// Dropped is the number of leading rounds whose states are not
	// materialized; 0 for fully recorded histories.
	Dropped int
}

// Len returns the number of completed rounds, including dropped ones.
func (h History) Len() int { return h.Dropped + len(h.States) }

// Last returns the most recent world state, or the empty state if no round
// was recorded.
func (h History) Last() WorldState {
	if len(h.States) == 0 {
		return ""
	}
	return h.States[len(h.States)-1]
}

// Prefix returns the history truncated to its first n states. It panics if
// n is out of range, mirroring slice semantics, or — with a descriptive
// message — if n reaches into the rounds a partial history dropped.
func (h History) Prefix(n int) History {
	if n < h.Dropped {
		panic(fmt.Sprintf("comm: Prefix(%d) reaches into the %d dropped rounds of a partial history", n, h.Dropped))
	}
	return History{States: h.States[:n-h.Dropped], Dropped: h.Dropped}
}

// RoundView is what the user observed and did during a single round: the
// messages delivered to it and the messages it emitted.
type RoundView struct {
	In  Inbox
	Out Outbox
}

// View is the portion of the execution visible to the user: its own rounds,
// in order. Sensing functions — the feedback mechanism of the theory — are
// predicates over views, never over hidden server or world internals.
//
// Like History, a partial view keeps only the trailing Rounds and counts
// the discarded prefix in Dropped.
type View struct {
	Rounds []RoundView

	// Dropped is the number of leading rounds not materialized; 0 for
	// fully recorded views.
	Dropped int
}
