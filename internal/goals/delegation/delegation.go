// Package delegation implements a finite goal of delegating computation,
// the example that started the goal-oriented line of work (Juba & Sudan,
// STOC 2008). The original result delegates a PSPACE-complete function;
// what the theory actually exercises is the asymmetry "the server can find
// what the user can only verify". We realize that asymmetry at laptop scale
// with NP-search instances (subset-sum witnesses): the server solves, the
// user verifies in linear time.
//
// The cast:
//
//   - World: poses a subset-sum instance and accepts an answer; the finite
//     goal is achieved iff the user halts after submitting a correct
//     witness.
//   - Server: a solver speaking an unknown dialect.
//   - User: candidate i relays the instance to the server in dialect i,
//     decodes the reply, submits the witness and halts. The finite-goal
//     universal user (universal.FiniteRunner) dovetails candidates
//     Levin-style; sensing = local verification of the submitted witness,
//     which is safe by construction.
package delegation

import (
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/msgbuf"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// Protocol vocabulary.
const (
	cmdSolve   = "SOLVE"
	rspWitness = "WITNESS"
)

// Vocabulary returns the solver protocol's verbs for word-dialect families.
func Vocabulary() []string { return []string{cmdSolve, rspWitness} }

// Instance is a subset-sum instance: find a subset of Weights summing to
// Target. Instances produced by Generate always have a solution.
type Instance struct {
	Weights []int64
	Target  int64
}

// Generate produces a solvable instance with n weights using the given
// generator: weights are uniform in [1, 100] and the target is the sum of a
// random non-empty subset.
func Generate(n int, r *xrand.Rand) Instance {
	if n < 1 {
		n = 1
	}
	if n > 62 {
		n = 62
	}
	ins := Instance{Weights: make([]int64, n)}
	for i := range ins.Weights {
		ins.Weights[i] = int64(r.Intn(100) + 1)
	}
	mask := uint64(0)
	for mask == 0 {
		mask = r.Uint64() & ((1 << uint(n)) - 1)
	}
	ins.Target = sumOf(ins.Weights, mask)
	return ins
}

func sumOf(ws []int64, mask uint64) int64 {
	var s int64
	for i, w := range ws {
		if mask&(1<<uint(i)) != 0 {
			s += w
		}
	}
	return s
}

// Verify reports whether mask selects a subset of the instance's weights
// summing exactly to the target. This is the user's (efficient) check.
func (ins Instance) Verify(mask uint64) bool {
	if len(ins.Weights) < 64 && mask >= 1<<uint(len(ins.Weights)) {
		return false
	}
	return sumOf(ins.Weights, mask) == ins.Target
}

// Solve finds a witness mask by dynamic programming over reachable sums, or
// reports ok=false if the instance has no solution. This is the server's
// (expensive) search.
func (ins Instance) Solve() (mask uint64, ok bool) {
	// reach maps a reachable sum to some mask achieving it.
	reach := map[int64]uint64{0: 0}
	for i, w := range ins.Weights {
		// Iterate over a snapshot so newly added sums don't cascade
		// within one item (each item used at most once).
		sums := make([]int64, 0, len(reach))
		for s := range reach {
			sums = append(sums, s)
		}
		for _, s := range sums {
			ns := s + w
			if _, seen := reach[ns]; !seen {
				reach[ns] = reach[s] | 1<<uint(i)
			}
		}
		if m, done := reach[ins.Target]; done && m != 0 {
			return m, true
		}
	}
	m, ok := reach[ins.Target]
	if !ok || m == 0 {
		return 0, false
	}
	return m, true
}

// Encode serializes the instance as "w1,w2,...,wn;target".
func (ins Instance) Encode() string {
	parts := make([]string, len(ins.Weights))
	for i, w := range ins.Weights {
		parts[i] = strconv.FormatInt(w, 10)
	}
	return strings.Join(parts, ",") + ";" + strconv.FormatInt(ins.Target, 10)
}

// ParseInstance inverts Encode. ok is false on malformed input.
func ParseInstance(s string) (Instance, bool) {
	weightsPart, targetPart, found := strings.Cut(s, ";")
	if !found {
		return Instance{}, false
	}
	target, err := strconv.ParseInt(targetPart, 10, 64)
	if err != nil {
		return Instance{}, false
	}
	fields := strings.Split(weightsPart, ",")
	ins := Instance{Weights: make([]int64, 0, len(fields)), Target: target}
	for _, f := range fields {
		w, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return Instance{}, false
		}
		ins.Weights = append(ins.Weights, w)
	}
	return ins, true
}

// Goal is the finite delegation goal. Env.Choice seeds the instance.
type Goal struct {
	// N is the number of weights per instance; 0 means 12.
	N int
}

var _ goal.FiniteGoal = (*Goal)(nil)

func (g *Goal) n() int {
	if g.N <= 0 {
		return 12
	}
	return g.N
}

// Name implements goal.Goal.
func (g *Goal) Name() string { return "delegation" }

// EnvChoices implements goal.Goal: eight distinct instances.
func (g *Goal) EnvChoices() int { return 8 }

// NewWorld implements goal.Goal.
func (g *Goal) NewWorld(env goal.Env) goal.World {
	r := xrand.New(uint64(env.Choice)*0x9E3779B97F4A7C15 + 1)
	return &World{instance: Generate(g.n(), r)}
}

// Achieved implements goal.FiniteGoal: the history is acceptable iff the
// world verified a correct answer.
func (g *Goal) Achieved(h comm.History) bool {
	return strings.Contains(string(h.Last()), "solved=1")
}

// World poses the instance and verifies answers.
//
// World→user message: "INSTANCE <encoded>". User→world answer:
// "ANSWER <mask>". Snapshot: "answered=<0|1>;solved=<0|1>".
type World struct {
	instance Instance
	answered bool
	solved   bool

	announce comm.Message // cached "INSTANCE <encoded>" (instance is fixed per world)
}

var (
	_ goal.World     = (*World)(nil)
	_ comm.StepperTo = (*World)(nil)
)

// Instance returns the posed instance (for tests and examples).
func (w *World) Instance() Instance { return w.instance }

// Reset implements comm.Strategy.
func (w *World) Reset(*xrand.Rand) {
	w.answered = false
	w.solved = false
}

// Step implements comm.Strategy.
func (w *World) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(w, in) }

// StepTo implements comm.StepperTo.
func (w *World) StepTo(in comm.Inbox, out *comm.Outbox) error {
	if rest, ok := strings.CutPrefix(string(in.FromUser), "ANSWER "); ok {
		w.answered = true
		if mask, err := strconv.ParseUint(rest, 10, 64); err == nil && w.instance.Verify(mask) {
			w.solved = true
		}
	}
	if w.announce == "" {
		w.announce = comm.Message("INSTANCE " + w.instance.Encode())
	}
	out.ToUser = w.announce
	return nil
}

// delegationStates holds the four snapshot encodings; the world's state
// space is tiny, so snapshots never allocate.
var delegationStates = [2][2]comm.WorldState{
	{"answered=0;solved=0", "answered=0;solved=1"},
	{"answered=1;solved=0", "answered=1;solved=1"},
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Snapshot implements goal.World.
func (w *World) Snapshot() comm.WorldState {
	return delegationStates[b2i(w.answered)][b2i(w.solved)]
}

// Server is the solver's native protocol: on "SOLVE <instance>" it replies
// "WITNESS <mask>" (or stays silent on unsolvable/malformed instances).
// Wrap with server.Dialected to build the class of foreign-protocol
// solvers.
//
// Step is a pure function of the incoming command; the single-command
// memo spares re-running the witness search when an impatient user
// re-sends the same SOLVE while the previous reply is in flight.
type Server struct {
	memo msgbuf.Memo1[comm.Message, comm.Message] // SOLVE command → reply
}

var _ comm.StepperTo = (*Server)(nil)

// Reset implements comm.Strategy.
func (s *Server) Reset(*xrand.Rand) { s.memo.Reset() }

// Step implements comm.Strategy.
func (s *Server) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

// StepTo implements comm.StepperTo.
func (s *Server) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rest, ok := strings.CutPrefix(string(in.FromUser), cmdSolve+" ")
	if !ok {
		return nil
	}
	reply, ok := s.memo.Get(in.FromUser)
	if !ok {
		if ins, ok := ParseInstance(rest); ok {
			if mask, ok := ins.Solve(); ok {
				reply = comm.Message(rspWitness + " " + strconv.FormatUint(mask, 10))
			}
		}
		s.memo.Put(in.FromUser, reply)
	}
	out.ToUser = reply
	return nil
}

// Candidate is the dialect-d delegation user: relay the instance to the
// server, decode the witness, submit it to the world, halt.
type Candidate struct {
	// D is the dialect this candidate speaks to the server.
	D dialect.Dialect

	instance  string
	submitted bool
	halted    bool
	elapsed   int
	solveCmd  msgbuf.Memo1[string, comm.Message] // encoded "SOLVE <instance>", built once per instance
}

var (
	_ comm.StepperTo = (*Candidate)(nil)
	_ comm.Halter    = (*Candidate)(nil)
)

// Reset implements comm.Strategy.
func (c *Candidate) Reset(*xrand.Rand) {
	c.instance = ""
	c.submitted = false
	c.halted = false
	c.elapsed = 0
}

// Step implements comm.Strategy.
func (c *Candidate) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(c, in) }

// StepTo implements comm.StepperTo.
func (c *Candidate) StepTo(in comm.Inbox, out *comm.Outbox) error {
	defer func() { c.elapsed++ }()

	if rest, ok := strings.CutPrefix(string(in.FromWorld), "INSTANCE "); ok {
		c.instance = rest
	}

	// After submitting, wait one round (so the world processes the
	// answer) and halt.
	if c.submitted {
		c.halted = true
		return nil
	}

	// A decodable witness ends the conversation with the server.
	plain := c.D.Decode(in.FromServer)
	if rest, ok := strings.CutPrefix(string(plain), rspWitness+" "); ok {
		if _, err := strconv.ParseUint(rest, 10, 64); err == nil {
			c.submitted = true
			out.ToWorld = comm.Message("ANSWER " + rest)
			return nil
		}
	}

	if c.instance == "" {
		return nil
	}
	// (Re)issue the solve request every other round; the instance is
	// fixed per execution, so the encoded request is built once
	// (dialects are pure).
	if c.elapsed%2 == 0 {
		cmd, ok := c.solveCmd.Get(c.instance)
		if !ok {
			cmd = c.D.Encode(comm.Message(cmdSolve + " " + c.instance))
			c.solveCmd.Put(c.instance, cmd)
		}
		out.ToServer = cmd
	}
	return nil
}

// Halted implements comm.Halter.
func (c *Candidate) Halted() bool { return c.halted }

// Enum enumerates one Candidate per dialect in the family.
func Enum(fam *dialect.Family) enumerate.Enumerator {
	return enumerate.FromFunc("delegation/"+fam.Name(), fam.Size(), func(i int) comm.Strategy {
		return &Candidate{D: fam.Dialect(i)}
	})
}

// Sense is the finite-goal sensing function: replayed over a completed
// attempt's view, it is positive iff the view contains an instance
// announcement and a submitted answer whose witness the *user itself*
// verifies against the instance. Safety holds by construction — a positive
// indication implies a correct witness was submitted, hence an acceptable
// history.
func Sense() sensing.Sense {
	return &verifySense{}
}

type verifySense struct {
	instance string
	verified bool
}

var _ sensing.Sense = (*verifySense)(nil)

func (s *verifySense) Reset() {
	s.instance = ""
	s.verified = false
}

func (s *verifySense) Observe(rv *comm.RoundView) bool {
	if rest, ok := strings.CutPrefix(string(rv.In.FromWorld), "INSTANCE "); ok {
		s.instance = rest
	}
	if rest, ok := strings.CutPrefix(string(rv.Out.ToWorld), "ANSWER "); ok && s.instance != "" {
		ins, insOK := ParseInstance(s.instance)
		mask, err := strconv.ParseUint(rest, 10, 64)
		if insOK && err == nil && ins.Verify(mask) {
			s.verified = true
		}
	}
	return s.verified
}
