// Package universal implements the paper's main result (Theorem 1): for any
// compact or finite goal with safe and viable sensing, a universal user
// strategy exists.
//
//   - CompactUser handles compact goals: it enumerates candidate user
//     strategies and switches from the current one to the next whenever the
//     sensing function produces a negative indication.
//   - FiniteRunner handles finite goals: candidate strategies are enumerated
//     "in parallel" in the style of Levin's universal search, with doubling
//     time budgets, and sensing decides when to stop.
package universal

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
	"repro/internal/xrand"
)

// CompactUser is the enumeration-with-switching universal user for compact
// goals. It is itself a comm.Strategy and can be paired with any server.
//
// On every round it runs the current candidate strategy and feeds the round
// into the sensing function; a negative indication evicts the candidate and
// installs the next one in the enumeration (wrapping around at the end —
// legitimate for forgiving goals, where earlier missteps never doom the
// execution).
type CompactUser struct {
	enum  enumerate.Enumerator
	sense sensing.Sense

	r        *xrand.Rand
	step     comm.StepperTo // the current candidate, resolved to its in-place step
	shim     comm.StepOnly  // the current candidate's shim when it has only Step
	rv       comm.RoundView // the round sensing reads, by pointer
	index    int
	switches int

	// cands caches one constructed candidate (and its reusable RNG) per
	// canonical enumeration index, so cycling through a bounded class —
	// within a run or across Resets — re-Resets existing strategies
	// instead of constructing fresh ones. See install.
	cands []candSlot
}

// candSlot is one entry of the candidate cache.
type candSlot struct {
	s comm.Strategy
	r *xrand.Rand
}

// candCacheSize bounds the candidate cache: classes larger than this
// construct candidates on demand, as before.
const candCacheSize = 64

var (
	_ comm.Strategy  = (*CompactUser)(nil)
	_ comm.StepperTo = (*CompactUser)(nil)
)

// NewCompactUser builds the universal user from a strategy enumeration and
// a sensing function. It returns an error on nil arguments.
func NewCompactUser(enum enumerate.Enumerator, sense sensing.Sense) (*CompactUser, error) {
	if enum == nil {
		return nil, errors.New("universal: nil enumerator")
	}
	if sense == nil {
		return nil, errors.New("universal: nil sense")
	}
	return &CompactUser{enum: enum, sense: sense}, nil
}

// Reset implements comm.Strategy.
func (u *CompactUser) Reset(r *xrand.Rand) {
	if r == nil {
		r = xrand.New(0)
	}
	u.r = r
	u.index = 0
	u.switches = 0
	u.install()
}

func (u *CompactUser) install() {
	// For bounded classes of modest size, candidate strategies are cached
	// per canonical index and re-Reset instead of reconstructed. This is
	// behavior-preserving: enumerators are stable (Strategy(i) always
	// describes the same strategy), Reset fully reinitializes a strategy,
	// and SplitInto advances u.r exactly as Split does, so every party
	// sees identical RNG streams with or without the cache.
	if size := u.enum.Size(); size != enumerate.Unbounded && size > 0 && size <= candCacheSize {
		if len(u.cands) != size {
			u.cands = make([]candSlot, size)
		}
		sl := &u.cands[((u.index%size)+size)%size]
		if sl.s == nil {
			sl.s = u.enum.Strategy(u.index)
			sl.r = &xrand.Rand{}
		}
		u.r.SplitInto(sl.r)
		sl.s.Reset(sl.r)
		u.step = comm.InPlace(sl.s, &u.shim)
	} else {
		cand := u.enum.Strategy(u.index)
		cand.Reset(u.r.Split())
		u.step = comm.InPlace(cand, &u.shim)
	}
	u.sense.Reset()
}

// Step implements comm.Strategy.
func (u *CompactUser) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(u, in) }

// StepTo implements comm.StepperTo: run the current candidate, then
// consult sensing and switch on a negative indication.
func (u *CompactUser) StepTo(in comm.Inbox, out *comm.Outbox) error {
	// The view is written field by field, the inbox while it is still in
	// registers: the candidate has only just stored *out, and a
	// whole-struct copy would stall on those stores.
	rv := &u.rv
	rv.In.FromUser, rv.In.FromServer, rv.In.FromWorld = in.FromUser, in.FromServer, in.FromWorld
	if err := u.step.StepTo(in, out); err != nil {
		return fmt.Errorf("universal: candidate %d: %w", u.index, err)
	}
	rv.Out.ToUser, rv.Out.ToServer, rv.Out.ToWorld = out.ToUser, out.ToServer, out.ToWorld
	if !u.sense.Observe(rv) {
		u.index++
		u.switches++
		u.install()
	}
	return nil
}

// Index returns the (absolute, non-wrapped) index of the current candidate
// strategy.
func (u *CompactUser) Index() int { return u.index }

// Switches returns how many times the user has evicted a candidate since
// the last Reset.
func (u *CompactUser) Switches() int { return u.switches }

// Attempt records one Levin-search attempt of the finite-goal runner.
type Attempt struct {
	// Index is the candidate strategy index tried.
	Index int
	// Budget is the round budget allotted to the attempt.
	Budget int
	// Rounds is how many rounds actually ran.
	Rounds int
	// Halted reports whether the candidate declared completion.
	Halted bool
	// Verdict is the sensing function's final indication on the
	// attempt's view.
	Verdict bool
}

// FiniteResult summarizes a finite-goal universal search.
type FiniteResult struct {
	// Succeeded reports whether some attempt ended with a positive
	// sensing verdict.
	Succeeded bool
	// Index and Budget identify the successful attempt.
	Index  int
	Budget int
	// TotalRounds is the total number of simulated rounds across all
	// attempts — the overhead the theory says is essentially necessary.
	TotalRounds int
	// Attempts lists every attempt in order.
	Attempts []Attempt
	// Final is the execution result of the successful attempt (nil if
	// the search failed).
	Final *system.Result
}

// Schedule selects how the finite-goal runner divides time among candidate
// strategies.
type Schedule int

// Dovetailing schedules.
const (
	// ScheduleUniform dovetails candidates with linearly growing
	// budgets: phase p runs candidates 0..p, each with budget p+1
	// rounds. Success at candidate i needing b rounds costs
	// O(max(i,b)³) total rounds — polynomial overhead, the practical
	// choice for experiments.
	ScheduleUniform Schedule = iota + 1

	// ScheduleExponential is classic Levin weighting: phase p runs
	// candidates 0..p with budget 2^(p−i) rounds, giving candidate i a
	// constant fraction ~2^−i of all simulated time. Optimal up to a
	// constant factor in the weighted sense, but only candidates of
	// small index are reachable in practice.
	ScheduleExponential
)

// FiniteRunner is the Levin-style universal user for finite goals. Because
// the finite-goal definition quantifies over all server and world start
// states, each attempt may legitimately run in a fresh execution; the
// runner dovetails candidate strategies "in parallel" per the selected
// Schedule and uses sensing to decide when to stop.
//
// The dovetailing is literal: each phase's attempts execute concurrently
// through system.RunBatch (bounded by Parallel), and the phase's results
// are then judged in attempt order, so the outcome — including TotalRounds
// and the Attempts list — is identical to a strictly serial search.
type FiniteRunner struct {
	// Enum is the candidate user-strategy enumeration.
	Enum enumerate.Enumerator
	// Sense judges a completed attempt's view; safety for finite goals
	// means it is positive only on views whose histories the referee
	// accepts.
	Sense sensing.Sense
	// Schedule selects the dovetailing; zero means ScheduleUniform.
	Schedule Schedule
	// MaxPhases bounds the search; 0 means the schedule's default
	// (DefaultUniformPhases or DefaultExponentialPhases).
	MaxPhases int
	// Parallel bounds the per-phase worker pool; values < 1 mean
	// GOMAXPROCS. The search result is the same at every setting.
	Parallel int
}

// Default phase bounds per schedule.
const (
	DefaultUniformPhases     = 512
	DefaultExponentialPhases = 20
)

// Run performs the universal search. mkServer and mkWorld create a fresh
// server and world per attempt (the adversary's choice is fixed by the
// caller); seed drives all randomness deterministically.
func (fr *FiniteRunner) Run(
	mkServer func() comm.Strategy,
	mkWorld func() goal.World,
	seed uint64,
) (*FiniteResult, error) {
	if fr.Enum == nil || fr.Sense == nil {
		return nil, errors.New("universal: FiniteRunner needs Enum and Sense")
	}
	if mkServer == nil || mkWorld == nil {
		return nil, errors.New("universal: FiniteRunner needs server and world factories")
	}
	sched := fr.Schedule
	if sched == 0 {
		sched = ScheduleUniform
	}
	maxPhases := fr.MaxPhases
	if maxPhases <= 0 {
		if sched == ScheduleExponential {
			maxPhases = DefaultExponentialPhases
		} else {
			maxPhases = DefaultUniformPhases
		}
	}
	size := fr.Enum.Size()

	res := &FiniteResult{}
	root := xrand.New(seed)
	for p := 0; p < maxPhases; p++ {
		// Collect the phase's attempt specs, drawing seeds in attempt
		// order (exactly as a serial search would).
		type attemptSpec struct {
			index, budget int
			seed          uint64
		}
		var specs []attemptSpec
		for i := 0; i <= p; i++ {
			if size != enumerate.Unbounded && i >= size {
				break
			}
			budget := p + 1
			if sched == ScheduleExponential {
				budget = 1 << (p - i)
			}
			specs = append(specs, attemptSpec{index: i, budget: budget, seed: root.Uint64()})
		}
		if len(specs) == 0 {
			continue
		}

		trials := make([]system.Trial, len(specs))
		for t, spec := range specs {
			trials[t] = system.Trial{
				User: func() (comm.Strategy, error) {
					return fr.Enum.Strategy(spec.index), nil
				},
				Server: func() comm.Strategy { return mkServer() },
				World:  func() goal.World { return mkWorld() },
				Config: system.Config{MaxRounds: spec.budget, Seed: spec.seed},
			}
		}
		execs, err := system.RunBatch(trials, system.BatchConfig{Parallelism: fr.Parallel})
		if err != nil {
			return nil, fmt.Errorf("universal: phase %d: %w", p, err)
		}

		// Judge the phase's attempts in order; everything after the
		// first success was speculative work and is discarded.
		for t, spec := range specs {
			exec := execs[t]
			verdict := exec.Halted && sensing.Replay(fr.Sense, exec.View)
			res.TotalRounds += exec.Rounds
			res.Attempts = append(res.Attempts, Attempt{
				Index:   spec.index,
				Budget:  spec.budget,
				Rounds:  exec.Rounds,
				Halted:  exec.Halted,
				Verdict: verdict,
			})
			if verdict {
				res.Succeeded = true
				res.Index = spec.index
				res.Budget = spec.budget
				res.Final = exec
				for _, spare := range execs[t+1:] {
					system.ReleaseResult(spare)
				}
				return res, nil
			}
			system.ReleaseResult(exec)
		}
	}
	return res, nil
}
