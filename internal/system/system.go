// Package system implements the execution engine for the three-party
// (user, server, world) model.
//
// Execution proceeds in rounds. In each round every party consumes the
// messages sent to it in the previous round and produces messages to be
// delivered in the next round; after the world's step its state may be
// snapshotted into the history that referees judge. A single execution
// (Run) is single-goroutine and fully deterministic given Config.Seed.
// Run steps each party in place (comm.StepperTo), through a shim for a
// party that has only Step, into outbox buffers it swaps by pointer
// between rounds; the buffers live in the pooled Result.
//
// Beyond single executions the package provides a batch scheduler:
// RunBatch and RunEach fan independent Trial specs across a bounded worker
// pool, delivering results in submission order so that parallel output is
// identical to serial output. Config.Record selects whether an execution's
// history and view are materialized (RecordFull) or not (RecordOff, and
// RecordVerdict, which ends a run once an absorbing referee accepts):
// compact trials are judged online by the engine itself, through
// Config.Referee, and record nothing, and ReleaseResult recycles Result
// storage across runs.
package system

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/xrand"
)

// DefaultMaxRounds bounds executions whose configuration leaves MaxRounds
// unset. Compact goals conceptually run forever; the bound is the finite
// horizon on which their referees are evaluated.
const DefaultMaxRounds = 1000

// RecordPolicy selects how much of an execution the engine materializes
// into the Result, and whether a run its caller judges by the verdict
// alone may end early. The zero value is RecordFull, so existing call
// sites keep complete histories and views by default.
//
// RecordFull and RecordOff change only what is stored, never how the
// parties execute: the round hooks observe every round, and Result.Rounds
// and History.Len report the true execution length. RecordVerdict stores
// what RecordOff stores, and may also end the run before its horizon.
type RecordPolicy struct {
	off, verdict bool
}

// RecordFull keeps every round's world state and round view (the default).
var RecordFull = RecordPolicy{}

// RecordOff keeps no per-round data at all; the Result carries only its
// counters (History and View are empty, and History.Dropped counts the
// rounds).
var RecordOff = RecordPolicy{off: true}

// RecordVerdict keeps what RecordOff keeps, for a caller that reads only
// the verdict (Result.Achieved and LastUnacceptable), and refuses the round
// hooks. If Config.Referee is goal.Absorbing and the user is no
// comm.Halter, the run ends after the first round the referee accepts, and
// Achieved judges it on its horizon, as the full run would; otherwise the
// run is a RecordOff run.
var RecordVerdict = RecordPolicy{off: true, verdict: true}

// String returns a human-readable policy name.
func (p RecordPolicy) String() string {
	if p.verdict {
		return "verdict"
	}
	if p.off {
		return "off"
	}
	return "full"
}

// Config controls a single execution.
type Config struct {
	// MaxRounds is the execution horizon; 0 means DefaultMaxRounds.
	MaxRounds int

	// Seed determines all randomness in the execution. The engine
	// derives independent streams for the user, server and world.
	Seed uint64

	// Record selects how much of the execution is materialized into the
	// Result; the zero value records everything. See RecordPolicy.
	Record RecordPolicy

	// Referee, if non-nil, is the compact goal the run is judged by,
	// online: after every round the engine judges the prefix ending in
	// it with AcceptableWorld on the live world, and stores the largest
	// rejected prefix length in Result.LastUnacceptable. By the
	// goal.CompactGoal contract that is the verdict goal.CompactAchieved
	// and goal.LastUnacceptable reach on the recorded history.
	Referee goal.CompactGoal

	// OnRound, if non-nil, is invoked after every round with the round
	// index (0-based), the user's view of the round, and the world
	// snapshot (RecordVerdict refuses the hooks). Setting OnRound forces
	// a snapshot per round even under RecordOff; callers that only need
	// the live world should use OnRoundLive instead. A caller that needs
	// only a compact verdict sets Referee and no hook.
	OnRound func(round int, rv comm.RoundView, state comm.WorldState)

	// OnRoundLive, if non-nil, is invoked after every round with the
	// round index, the user's view of the round, and the live world.
	// Unlike OnRound it does not force snapshot materialization, so
	// under RecordOff the engine never serializes a state for it. The
	// callback must not retain w or call its Step/Reset; it may call
	// Snapshot. Both hooks may be set; OnRound fires first.
	OnRoundLive func(round int, rv comm.RoundView, w goal.World)
}

// Result is the record of one execution.
type Result struct {
	// History is the sequence of world snapshots, one per round (empty
	// under RecordOff).
	History comm.History

	// View is the user's view of the execution (its inboxes and
	// outboxes, one RoundView per round; empty under RecordOff).
	View comm.View

	// Rounds is the number of completed rounds.
	Rounds int

	// Halted reports whether the user strategy declared itself halted
	// (relevant to finite goals) before the horizon.
	Halted bool

	// LastUnacceptable is the largest prefix length Config.Referee
	// rejected, or 0 if it accepted every prefix or the run had no
	// referee. For an achieved compact goal it is the convergence point.
	LastUnacceptable int

	// Messages counts the non-empty messages on the user's four
	// channels (from the server and the world, to the server and the
	// world) over all rounds — what a recorded View would show.
	Messages int

	horizon int // the horizon of a RecordVerdict run that ended early, else 0

	// frame is Run's scratch. It rides in the pooled Result because the
	// outboxes are handed to the parties through an interface, which
	// would move them to the heap on every run.
	frame frame
}

// Achieved reports whether every prefix in the final window rounds was
// acceptable to Config.Referee; like goal.CompactAchieved it is false
// unless 0 < window <= Rounds. A RecordVerdict run that ended early is
// judged on its horizon, where the full run would have ended.
func (r *Result) Achieved(window int) bool {
	n := max(r.Rounds, r.horizon)
	return window > 0 && window <= n && r.LastUnacceptable <= n-window
}

// frame holds one run's message buffers and party shims. Each buffer
// comes twice, this round's and last round's, and Run swaps the two by
// pointer: the user's view (its inbox and outbox, which the round hooks
// read), the server's outbox and the world's. Parties with only Step
// step through a shim.
type frame struct {
	view   [2]comm.RoundView
	server [2]comm.Outbox
	world  [2]comm.Outbox
	shim   [3]comm.StepOnly
}

// RoundError is the error of an execution that failed mid-run: Err, the
// failing step's error, came after Rounds completed rounds. Its text is
// Err's.
type RoundError struct {
	Rounds int
	Err    error
}

func (e *RoundError) Error() string { return e.Err.Error() }

func (e *RoundError) Unwrap() error { return e.Err }

// resultPool recycles Result structs and their slice storage across runs.
// Results are pooled only through ReleaseResult, so callers that retain
// results indefinitely are unaffected.
var resultPool = sync.Pool{New: func() any { return new(Result) }}

// acquireResult returns a zeroed Result whose slice storage may be reused
// from a previously released one.
func acquireResult() *Result {
	return resultPool.Get().(*Result)
}

// ReleaseResult returns a Result's storage to the engine's internal pool.
// The caller must not touch res, its History or its View afterwards; use
// it only when the result (including any slices taken from it) has been
// fully consumed. Releasing results is optional — it trims allocations on
// hot batch loops.
func ReleaseResult(res *Result) {
	if res == nil {
		return
	}
	clear(res.History.States) // drop string references
	clear(res.View.Rounds)
	res.History = comm.History{States: res.History.States[:0]}
	res.View = comm.View{Rounds: res.View.Rounds[:0]}
	res.Rounds = 0
	res.Halted = false
	res.LastUnacceptable = 0
	res.Messages = 0
	res.horizon = 0
	resultPool.Put(res)
}

// silence clears an outbox for the party about to write it, field by
// field. The outboxes live in the heap, and a typed clear of a struct that
// holds pointers (*o = comm.Outbox{}) goes through the runtime's
// bulkBarrierPreWrite whenever the GC is marking; field stores take one
// buffered write barrier instead. The stores are unconditional: skipping
// the silent fields costs a branch per field, which the paper's tables,
// whose runs seldom meet a marking GC, pay on every round.
func silence(o *comm.Outbox) {
	o.ToUser, o.ToServer, o.ToWorld = "", "", ""
}

// Run executes (user, server, world) for up to cfg.MaxRounds rounds, until
// a halting user strategy halts, or under RecordVerdict until an absorbing
// referee accepts. All three strategies are Reset with independent
// deterministic streams derived from cfg.Seed before the first round. A
// party's step error ends the run with a *RoundError.
func Run(user, server comm.Strategy, world goal.World, cfg Config) (*Result, error) {
	if user == nil || server == nil || world == nil {
		return nil, errors.New("system: nil strategy")
	}
	if cfg.Record.verdict && (cfg.OnRound != nil || cfg.OnRoundLive != nil) {
		return nil, errors.New("system: RecordVerdict takes no round hooks")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	record := !cfg.Record.off
	// The lazy-snapshot contract: when nothing consumes states — no
	// recording and no OnRound — the engine never calls Snapshot. The
	// referee and OnRoundLive see the live world.
	needState := record || cfg.OnRound != nil

	root := xrand.New(cfg.Seed)
	user.Reset(root.Split())
	server.Reset(root.Split())
	world.Reset(root.Split())

	halter, _ := user.(comm.Halter)
	// A verdict-only run may end at its first accepted round when the
	// referee's acceptance is a latch and no halt could end it otherwise.
	absorbing, _ := cfg.Referee.(goal.Absorbing)
	stop := cfg.Record.verdict && halter == nil && absorbing != nil && absorbing.AbsorbingGoal()

	res := acquireResult()
	f := &res.frame
	userTo := comm.InPlace(user, &f.shim[0])
	serverTo := comm.InPlace(server, &f.shim[1])
	worldTo := comm.InPlace(world, &f.shim[2])

	// Messages in flight: last round's outboxes are delivered this round,
	// while the parties write this round's into the other buffer. The
	// user's inbox and outbox are written in place in the round's view,
	// so the hooks get a view written a whole server and world step
	// earlier: a struct copy of fields stored just before stalls, because
	// the CPU cannot forward 16-byte loads from 8-byte stores.
	view, lastView := &f.view[1], &f.view[0]
	serverOut, fromServer := &f.server[1], &f.server[0]
	worldOut, fromWorld := &f.world[1], &f.world[0]

	// The verdict and the message count live in local variables until
	// the run ends: per-trial state written every round lives in Run,
	// never in caller-owned slots that two workers write side by side.
	lastBad, msgs := 0, 0
	var err error
	for round := 0; round < maxRounds; round++ {
		view.In.FromServer, view.In.FromWorld = fromServer.ToUser, fromWorld.ToUser
		silence(&view.Out)
		silence(serverOut)
		silence(worldOut)
		// The user's inbox is passed from its sources, not as view.In:
		// that would copy the fields just stored.
		if err = userTo.StepTo(comm.Inbox{FromServer: fromServer.ToUser, FromWorld: fromWorld.ToUser}, &view.Out); err != nil {
			err = fmt.Errorf("system: user step (round %d): %w", round, err)
			break
		}
		if err = serverTo.StepTo(comm.Inbox{FromUser: lastView.Out.ToServer, FromWorld: fromWorld.ToServer}, serverOut); err != nil {
			err = fmt.Errorf("system: server step (round %d): %w", round, err)
			break
		}
		if err = worldTo.StepTo(comm.Inbox{FromUser: lastView.Out.ToWorld, FromServer: fromServer.ToWorld}, worldOut); err != nil {
			err = fmt.Errorf("system: world step (round %d): %w", round, err)
			break
		}
		res.Rounds = round + 1
		if view.In.FromServer != "" {
			msgs++
		}
		if view.In.FromWorld != "" {
			msgs++
		}
		if view.Out.ToServer != "" {
			msgs++
		}
		if view.Out.ToWorld != "" {
			msgs++
		}

		var state comm.WorldState
		if needState {
			state = world.Snapshot()
		}
		if record {
			res.History.States = append(res.History.States, state)
			res.View.Rounds = append(res.View.Rounds, *view)
		}
		if cfg.Referee != nil && !cfg.Referee.AcceptableWorld(world) {
			lastBad = round + 1
		} else if stop {
			res.horizon = maxRounds
			break
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, *view, state)
		}
		if cfg.OnRoundLive != nil {
			cfg.OnRoundLive(round, *view, world)
		}
		view, lastView = lastView, view
		serverOut, fromServer = fromServer, serverOut
		worldOut, fromWorld = fromWorld, worldOut

		if halter != nil && halter.Halted() {
			res.Halted = true
			break
		}
	}

	res.frame = frame{} // keep no messages or parties in the pool
	if err != nil {
		rounds := res.Rounds
		ReleaseResult(res)
		return nil, &RoundError{Rounds: rounds, Err: err}
	}
	res.LastUnacceptable, res.Messages = lastBad, msgs
	if !record {
		res.History.Dropped = res.Rounds
	}
	return res, nil
}
