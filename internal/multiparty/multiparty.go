// Package multiparty implements the symmetric, more-than-two-party setting
// the paper's full version sketches (footnote 1), which "primarily consists
// of a reduction to the two-party setting".
//
// The scenario: k members each hold a private value and speak their own
// dialect; a coordinator must learn every value (e.g. to compute their
// maximum) without knowing who speaks what. The reduction treats each
// member as a *server* in a two-party goal-oriented session and runs the
// compact universal user (enumeration over the dialect family with
// report-sensing) against each member in turn. The native baseline — all
// parties designed together, sharing dialect 0 — needs a constant number of
// rounds per member; the reduction pays the enumeration overhead per
// member, quantified by experiment T6.
package multiparty

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

// Protocol vocabulary.
const (
	cmdAsk = "ASK"
	rspVal = "VAL"
)

// Vocabulary returns the query protocol's verbs for word-dialect families.
func Vocabulary() []string { return []string{cmdAsk, rspVal} }

// patience is the per-candidate sensing patience for query sessions.
const patience = 4

// Member is a party holding a private value and speaking dialect D. As a
// comm.Strategy it behaves as a server: a correctly-encoded "ASK" earns a
// correctly-encoded "VAL <value>".
type Member struct {
	Value int
	D     dialect.Dialect
}

var _ comm.StepperTo = (*Member)(nil)

// Reset implements comm.Strategy.
func (*Member) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (m *Member) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(m, in) }

// StepTo implements comm.StepperTo.
func (m *Member) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if m.D.Decode(in.FromUser) == cmdAsk {
		reply := comm.Message(rspVal + " " + strconv.Itoa(m.Value))
		out.ToUser = m.D.Encode(reply)
	}
	return nil
}

// askCandidate is the dialect-i query strategy: ask in dialect i, decode
// the reply, report the value to the world.
type askCandidate struct {
	d dialect.Dialect

	reported bool
	elapsed  int
}

var _ comm.StepperTo = (*askCandidate)(nil)

func (c *askCandidate) Reset(*xrand.Rand) {
	c.reported = false
	c.elapsed = 0
}

func (c *askCandidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

func (c *askCandidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	defer func() { c.elapsed++ }()
	if !c.reported {
		plain := c.d.Decode(in.FromServer)
		if rest, ok := strings.CutPrefix(string(plain), rspVal+" "); ok {
			if _, err := strconv.Atoi(rest); err == nil {
				c.reported = true
				out.ToWorld = comm.Message("REPORT " + rest)
				return nil
			}
		}
		if c.elapsed%2 == 0 {
			out.ToServer = c.d.Encode(cmdAsk)
		}
	}
	return nil
}

// queryEnum enumerates one askCandidate per dialect.
func queryEnum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc("multiparty/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &askCandidate{d: fam.Dialect(i)}
	})
}

// reportSense is positive once the user has reported a value — visible in
// the user's own outbox, hence a legitimate function of the view.
func reportSense() sensing.Sense {
	reported := sensing.Sticky(sensing.New(func(rv *comm.RoundView) bool {
		return strings.HasPrefix(string(rv.Out.ToWorld), "REPORT ")
	}))
	return sensing.Patience(reported, patience)
}

// reportWorld records the first reported value.
type reportWorld struct {
	got   bool
	value int
}

var (
	_ goal.World     = (*reportWorld)(nil)
	_ comm.StepperTo = (*reportWorld)(nil)
)

func (w *reportWorld) Reset(*xrand.Rand) {
	w.got = false
	w.value = 0
}

func (w *reportWorld) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

func (w *reportWorld) StepTo(in comm.Inbox, _ *comm.Outbox) error {
	if rest, ok := strings.CutPrefix(string(in.FromUser), "REPORT "); ok && !w.got {
		if v, err := strconv.Atoi(rest); err == nil {
			w.got = true
			w.value = v
		}
	}
	return nil
}

func (w *reportWorld) Snapshot() comm.WorldState {
	if !w.got {
		return "report=none"
	}
	return comm.WorldState("report=" + strconv.Itoa(w.value))
}

// Config controls the coordinator's sessions, each of which runs at most
// 40 × family size rounds.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Oracle, if true, skips enumeration: the coordinator is told each
	// member's dialect (the "designed together" native baseline).
	Oracle bool
	// Parallel bounds the worker pool the pairwise sessions run on
	// (via system.RunBatch); values < 1 mean GOMAXPROCS. Results are
	// identical at every setting.
	Parallel int
}

// SessionResult records one coordinator↔member session.
type SessionResult struct {
	// Value is the learned value.
	Value int
	// Rounds is the session length.
	Rounds int
	// OK reports whether a value was learned before the session bound.
	OK bool
}

// Result aggregates a full value-collection run.
type Result struct {
	// Sessions holds one entry per member, in order.
	Sessions []SessionResult
	// TotalRounds sums all session lengths — the reduction's cost.
	TotalRounds int
}

// AllOK reports whether every session learned a value.
func (r *Result) AllOK() bool {
	for _, s := range r.Sessions {
		if !s.OK {
			return false
		}
	}
	return true
}

// Max returns the maximum learned value; it returns an error if any
// session failed or there are no sessions.
func (r *Result) Max() (int, error) {
	if len(r.Sessions) == 0 {
		return 0, errors.New("multiparty: no sessions")
	}
	if !r.AllOK() {
		return 0, errors.New("multiparty: incomplete value collection")
	}
	maxV := r.Sessions[0].Value
	for _, s := range r.Sessions[1:] {
		if s.Value > maxV {
			maxV = s.Value
		}
	}
	return maxV, nil
}

// LearnValues has the coordinator learn every member's value through
// pairwise goal-oriented sessions: the reduction of the symmetric
// multi-party goal to the two-party setting. With cfg.Oracle it instead
// runs the native (agreed-standard) protocol as the baseline.
func LearnValues(members []*Member, fam *dialect.Family, cfg Config) (*Result, error) {
	if len(members) == 0 {
		return nil, errors.New("multiparty: no members")
	}
	if fam == nil {
		return nil, errors.New("multiparty: nil dialect family")
	}
	maxRounds := 40 * fam.Size()

	// Each coordinator↔member session is an independent trial; seeds are
	// drawn in member order at submission so parallel results are
	// identical to the former serial loop.
	root := xrand.New(cfg.Seed)
	trials := make([]system.Trial, len(members))
	for idx, m := range members {
		trials[idx] = system.Trial{
			User: func() (comm.Strategy, error) {
				if cfg.Oracle {
					return &askCandidate{d: m.D}, nil
				}
				return universal.NewCompactUser(queryEnum(fam), reportSense())
			},
			// Member is stateless (immutable value and dialect), so
			// sharing it across the engine's Reset is safe.
			Server: func() comm.Strategy { return m },
			World:  func() goal.World { return &reportWorld{} },
			Config: system.Config{MaxRounds: maxRounds, Seed: root.Uint64()},
		}
	}
	execs, err := system.RunBatch(trials, system.BatchConfig{Parallelism: cfg.Parallel})
	if err != nil {
		return nil, fmt.Errorf("multiparty: %w", err)
	}

	res := &Result{Sessions: make([]SessionResult, 0, len(members))}
	for _, exec := range execs {
		// The session's effective length is the round at which the
		// report landed in the world (the compact user itself never
		// halts); a failed session costs the full bound.
		sr := SessionResult{Rounds: exec.Rounds}
		for i, st := range exec.History.States {
			if rest, ok := strings.CutPrefix(string(st), "report="); ok && rest != "none" {
				if v, err := strconv.Atoi(rest); err == nil {
					sr.OK = true
					sr.Value = v
					sr.Rounds = i + 1
					break
				}
			}
		}
		res.Sessions = append(res.Sessions, sr)
		res.TotalRounds += sr.Rounds
		system.ReleaseResult(exec)
	}
	return res, nil
}
