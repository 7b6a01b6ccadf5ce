// Package fsm implements a mechanically generated family of goals: driving
// a finite-state machine (a Mealy transducer from internal/fst) to emit a
// designated target symbol.
//
// Where the stock goals are four hand-written demonstrations, every machine
// index of every fst.Space is an fsm goal — a countable goal family with
// content-derived identity (space dimensions + machine index fully determine
// the referee), which is what lets sweeps scale the scenario matrix from
// hundreds to hundreds of thousands without hand-writing worlds. The model
// is a control panel: the user presses buttons (input symbols) through the
// server, the world steps the machine and announces its state, and the goal
// is achieved once the machine has emitted the target output symbol
// (always NumOut-1, the space's designated "accept" symbol).
//
// Machines whose target is unreachable from the initial state are valid
// goals that no strategy can achieve — sweeps pin them failing, the
// infeasible class of the sensing-bound tests.
package fsm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/fst"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// FamilyVersion identifies the fsm family's binding semantics for result
// caching: it is composed into the registry version (see
// scenario.Builtin), so bumping it on any behavioral change here
// invalidates exactly the cached aggregates this package produced.
const FamilyVersion = "fsm/1"

// DefaultPatience gives a candidate three full user→server→world→user
// loops (one per press of a shortest winning input sequence on the stock
// small spaces) plus margin.
const DefaultPatience = 12

// Vocabulary is the token vocabulary of the panel protocol, the domain of
// its word-dialect families. Symbol numbers are payload and pass through
// dialects untouched.
func Vocabulary() []string { return []string{"press", "PRESSED"} }

// Space is the protocol of one machine space: its dimensions, its "NxAxB"
// name and the messages every machine of the space shares. It never
// changes once built, so one Space serves every goal of its space, on any
// goroutine.
type Space struct {
	dims fst.Space
	name string

	runMsg  []comm.Message // world→user "RUN q<q>"
	pressed []comm.Message // server→user "PRESSED <k>"
	sym     []comm.Message // server→world "sym <k>"
}

// ParseSpace parses the "NxAxB" spelling of an fst.Space (states x inputs
// x outputs), e.g. "2x3x2", and builds its protocol.
func ParseSpace(s string) (*Space, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return nil, fmt.Errorf("fsm: bad space %q: want NxAxB (e.g. 2x3x2)", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("fsm: bad space %q: dimension %q is not a positive integer", s, p)
		}
		dims[i] = v
	}
	return newSpace(fst.Space{NumStates: dims[0], NumIn: dims[1], NumOut: dims[2]}), nil
}

// newSpace materializes a valid space's name and messages once, so the
// round loop of every machine of the space only hands out shared strings.
func newSpace(dims fst.Space) *Space {
	sp := &Space{
		dims: dims,
		name: strconv.Itoa(dims.NumStates) + "x" + strconv.Itoa(dims.NumIn) + "x" + strconv.Itoa(dims.NumOut),
	}
	sp.runMsg = make([]comm.Message, dims.NumStates)
	for q := range sp.runMsg {
		sp.runMsg[q] = comm.Message("RUN q" + strconv.Itoa(q))
	}
	sp.pressed = make([]comm.Message, dims.NumIn)
	sp.sym = make([]comm.Message, dims.NumIn)
	for k := range sp.pressed {
		sp.pressed[k] = comm.Message("PRESSED " + strconv.Itoa(k))
		sp.sym[k] = comm.Message("sym " + strconv.Itoa(k))
	}
	return sp
}

// Goal is the compact panel goal for one machine of one space: a prefix is
// acceptable iff the machine has emitted the target symbol. All machine
// analysis (shortest-path policy, feasibility, forgiveness) happens once
// at construction; worlds, servers and candidates share the precomputed
// tables and the space's messages read-only, keeping the per-round path
// allocation-free.
type Goal struct {
	sp     *Space
	target int
	m      *fst.Machine

	// policy[q] is the first input of a shortest input sequence from
	// state q whose final step emits the target, or -1 if no sequence
	// exists from q.
	policy []int

	feasible  bool
	forgiving bool

	instance string // "fsm/NxAxB#<index>"
	// snapMsg is the snapshot per state<<1|done, built on first use: a
	// sweep never asks, and recorded runs on several workers may at once.
	snapOnce sync.Once
	snapMsg  []comm.WorldState
}

var (
	_ goal.CompactGoal = (*Goal)(nil)
	_ goal.Forgiving   = (*Goal)(nil)
)

// Goal builds the goal for machine `index` of the space. The index must
// lie below the space's size — wrapping it silently would let two
// different axis values name the same referee and corrupt content-derived
// scenario identity.
func (sp *Space) Goal(index uint64) (*Goal, error) {
	if size := sp.dims.Size(); index >= size {
		return nil, fmt.Errorf("fsm: machine index %d outside space %s of size %d", index, sp.name, size)
	}
	m, err := sp.dims.Machine(index)
	if err != nil {
		return nil, err
	}
	g := &Goal{sp: sp, target: sp.dims.NumOut - 1, m: m}
	g.analyze()
	g.instance = "fsm/" + sp.name + "#" + strconv.FormatUint(index, 10)
	return g, nil
}

// buildSnapshots fills snapMsg from the instance's "NxAxB#<index>" id.
func (g *Goal) buildSnapshots() {
	id := strings.TrimPrefix(g.instance, "fsm/")
	g.snapMsg = make([]comm.WorldState, 2*g.sp.dims.NumStates)
	for q := 0; q < g.sp.dims.NumStates; q++ {
		qs := strconv.Itoa(q)
		g.snapMsg[q<<1] = comm.WorldState("fsm=" + id + ";q=" + qs + ";done=0")
		g.snapMsg[q<<1|1] = comm.WorldState("fsm=" + id + ";q=" + qs + ";done=1")
	}
}

// analyze computes, per state, the shortest number of steps to emit the
// target and the first input of such a sequence (Bellman-Ford over a
// graph of at most a few dozen nodes), then feasibility from the initial
// state and forgiveness (target reachable from every state reachable from
// the initial one).
func (g *Goal) analyze() {
	n, a := g.sp.dims.NumStates, g.sp.dims.NumIn
	const inf = 1 << 30
	dist := make([]int, n)
	g.policy = make([]int, n)
	for q := range dist {
		dist[q] = inf
		g.policy[q] = -1
	}
	for changed := true; changed; {
		changed = false
		for q := 0; q < n; q++ {
			for i := 0; i < a; i++ {
				cell := q*a + i
				var cand int
				switch {
				case g.m.Out[cell] == g.target:
					cand = 1
				case dist[g.m.Next[cell]] < inf:
					cand = 1 + dist[g.m.Next[cell]]
				default:
					continue
				}
				if cand < dist[q] {
					dist[q], g.policy[q] = cand, i
					changed = true
				}
			}
		}
	}
	g.feasible = dist[0] < inf

	// Forgiving iff no reachable state is a dead end.
	reached := make([]bool, n)
	reached[0] = true
	queue := []int{0}
	g.forgiving = g.feasible
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if dist[q] == inf {
			g.forgiving = false
		}
		for i := 0; i < a; i++ {
			if next := g.m.Next[q*a+i]; !reached[next] {
				reached[next] = true
				queue = append(queue, next)
			}
		}
	}
}

// Name implements goal.Goal. The name is the family name; a scenario's
// space/machine axes carry the instance identity.
func (*Goal) Name() string { return "fsm" }

// Instance identifies the specific machine, e.g. "fsm/2x3x2#1729".
func (g *Goal) Instance() string { return g.instance }

// Feasible reports whether the target is emittable from the initial
// state — whether any strategy can achieve the goal at all.
func (g *Goal) Feasible() bool { return g.feasible }

// EnvChoices implements goal.Goal.
func (*Goal) EnvChoices() int { return 1 }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(goal.Env) goal.World { return &World{g: g} }

// Acceptable implements goal.CompactGoal: the machine has emitted the
// target iff the snapshot's done flag is set.
func (*Goal) Acceptable(prefix comm.History) bool {
	return strings.HasSuffix(string(prefix.Last()), "done=1")
}

// AcceptableWorld implements goal.WorldJudge: the same predicate, judged
// on the live machine.
func (g *Goal) AcceptableWorld(w goal.World) bool {
	if pw, ok := w.(*World); ok {
		return pw.done
	}
	return strings.HasSuffix(string(w.Snapshot()), "done=1")
}

// ForgivingGoal implements goal.Forgiving: the goal is forgiving iff no
// reachable state is a dead end, so early missteps never strand the
// machine (computed mechanically at construction).
func (g *Goal) ForgivingGoal() bool { return g.forgiving }

// World runs the machine: each "sym <k>" from the server steps it, the
// emission of the target symbol latches done, and the user is told the
// current state ("RUN q<i>", "DONE" once done) every round.
type World struct {
	g     *Goal
	state int
	done  bool
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Reset implements comm.Strategy.
func (w *World) Reset(*xrand.Rand) { w.state, w.done = 0, false }

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if rest, ok := strings.CutPrefix(string(in.FromServer), "sym "); ok {
		if k, err := strconv.Atoi(rest); err == nil && k >= 0 && k < w.g.sp.dims.NumIn {
			cell := w.state*w.g.sp.dims.NumIn + k
			if w.g.m.Out[cell] == w.g.target {
				w.done = true
			}
			w.state = w.g.m.Next[cell]
		}
	}
	if w.done {
		out.ToUser = "DONE"
	} else {
		out.ToUser = w.g.sp.runMsg[w.state]
	}
	return nil
}

func (w *World) snapIdx() int {
	i := w.state << 1
	if w.done {
		i |= 1
	}
	return i
}

// Snapshot implements goal.World.
func (w *World) Snapshot() comm.WorldState {
	w.g.snapOnce.Do(w.g.buildSnapshots)
	return w.g.snapMsg[w.snapIdx()]
}

// Server is the honest native-protocol panel operator: on "press <k>" it
// acknowledges the user and forwards the symbol to the panel. All replies
// are its space's precomputed strings.
type Server struct {
	G *Goal
}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy.
func (*Server) Reset(*xrand.Rand) {}

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rest, ok := strings.CutPrefix(string(in.FromUser), "press ")
	if !ok {
		return nil
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 || k >= s.G.sp.dims.NumIn {
		return nil
	}
	out.ToUser, out.ToWorld = s.G.sp.pressed[k], s.G.sp.sym[k]
	return nil
}

// Candidate is the user strategy for one dialect: every third round (one
// full user→server→world→user feedback loop) it presses the
// shortest-path input for the state the world last announced. It stays
// silent once done, and from states the analysis marked dead (or when the
// goal is infeasible) there is nothing useful to press.
type Candidate struct {
	D dialect.Dialect
	G *Goal

	elapsed int
	state   int
	done    bool

	// cmd[k] memoizes the encoded "press <k>", one slot per input of the
	// space, allocated at the first press. Without it, a 1000-round run
	// allocates 9 times instead of 3, over the steady-state budget of 4
	// that TestSteadyStateAllocBudgets holds fsm to.
	cmd []comm.Message
}

var _ comm.StepperTo = (*Candidate)(nil)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) { c.elapsed, c.state, c.done = 0, 0, false }

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	defer func() { c.elapsed++ }()
	switch {
	case in.FromWorld == "DONE":
		c.done = true
	default:
		if rest, ok := strings.CutPrefix(string(in.FromWorld), "RUN q"); ok {
			if q, err := strconv.Atoi(rest); err == nil && q >= 0 && q < c.G.sp.dims.NumStates {
				c.state = q
			}
		}
	}
	if c.done || c.elapsed%3 != 0 {
		return nil
	}
	k := c.G.policy[c.state]
	if k < 0 {
		return nil
	}
	if c.cmd == nil {
		c.cmd = make([]comm.Message, c.G.sp.dims.NumIn)
	}
	msg := c.cmd[k]
	if msg == "" {
		msg = c.D.Encode(comm.Message("press " + strconv.Itoa(k)))
		c.cmd[k] = msg
	}
	out.ToServer = msg
	return nil
}

// Enum enumerates one candidate per dialect of the family.
func (g *Goal) Enum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc(g.Instance()+"/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &Candidate{D: fam.Dialect(i), G: g}
	})
}

// Sense is positive while the world has been observed DONE within the
// patience window. It is safe (the panel itself reports completion on the
// world channel, which no adversary wrapper rewrites) and viable on
// feasible machines (the matching candidate reaches DONE within the
// window).
func Sense(patience int) sensing.Sense {
	if patience <= 0 {
		patience = DefaultPatience
	}
	return sensing.Patience(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "DONE"
	}), patience)
}
