package harness

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
	"repro/internal/xrand"
)

// CertConfig parameterizes a certification pass (Certify).
//
// Certify runs every trial through system.RunEach and observes it online,
// round by round, recording nothing: the engine judges the goal
// (system.Config.Referee), and the trial's user is a probe that feeds the
// candidate's own rounds to the sensing function as it steps it. No round
// hook is installed and no view is copied.
type CertConfig struct {
	// MaxRounds is the execution horizon per run; 0 means the system
	// default.
	MaxRounds int
	// Seed drives all randomness.
	Seed uint64
	// Parallel bounds the certification worker pool; values < 1 mean
	// GOMAXPROCS. Results are identical at every setting.
	Parallel int
}

// Window is the convergence window compact goals are certified by.
const Window = 10

// Certificate is one server's three verdicts, read off the same runs:
// every candidate paired with the server.
type Certificate struct {
	// Witness is the first candidate that achieves the goal with the
	// server, or -1: the server is helpful for the class iff Witness >=
	// 0. A failed run counts against its candidate.
	Witness int
	// Unsafe lists, in order, the candidates whose indications were
	// eventually always positive although the goal was not achieved, and
	// those whose runs failed: sensing is safe against the server iff
	// Unsafe is empty.
	Unsafe []int
	// Viable reports whether some candidate achieves the goal while
	// earning eventually always positive indications. It is meaningful
	// only for a helpful server.
	Viable bool
}

// probe is a certification trial's user: it steps the candidate in place
// and feeds the candidate's own round to the sensing function by pointer,
// as universal.CompactUser does, counting the positive indications in a
// row. Candidates of a compact goal never halt, so neither does a probe.
type probe struct {
	cand   comm.Strategy
	step   comm.StepperTo // cand, resolved to its in-place step
	shim   comm.StepOnly  // cand's shim when it has only Step
	sense  sensing.Sense
	rv     comm.RoundView // the round sense reads, by pointer
	streak int
}

// Reset implements comm.Strategy.
func (p *probe) Reset(r *xrand.Rand) {
	p.cand.Reset(r)
	p.sense.Reset()
	p.streak = 0
}

// Step implements comm.Strategy.
func (p *probe) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(p, in) }

// StepTo implements comm.StepperTo. A candidate's error is returned as it
// is, so a failed run reads as the candidate's own failure.
func (p *probe) StepTo(in comm.Inbox, out *comm.Outbox) error {
	rv := &p.rv
	rv.In.FromUser, rv.In.FromServer, rv.In.FromWorld = in.FromUser, in.FromServer, in.FromWorld
	if err := p.step.StepTo(in, out); err != nil {
		return err
	}
	rv.Out.ToUser, rv.Out.ToServer, rv.Out.ToWorld = out.ToUser, out.ToServer, out.ToWorld
	if p.sense.Observe(rv) {
		p.streak++
	} else {
		p.streak = 0
	}
	return nil
}

// eventuallyPositive reports whether the indications were positive on the
// final Window rounds (the empirical reading of "only finitely many
// negative indications").
func (p *probe) eventuallyPositive() bool { return p.streak >= Window }

// Certify certifies the hypotheses of Theorem 1 for a compact goal and one
// server, in the world the world factory builds (a fresh World per call):
// the server's helpfulness for the candidate class users, and the safety
// and viability against it of the sensing function mkSense returns (a
// fresh Sense per call). It runs every candidate with the server exactly
// once, in one batch, so users must be bounded.
//
// A run is achieved when its final Window rounds were acceptable, and
// positive when its final Window indications were. Safety requires that
// every positive run be achieved; viability that some candidate's run be
// both.
func Certify(
	g goal.CompactGoal,
	world func() goal.World,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	server func() comm.Strategy,
	cfg CertConfig,
) Certificate {
	size := users.Size()
	if size == enumerate.Unbounded {
		panic(fmt.Sprintf("harness: Certify needs a bounded class, %q is unbounded", users.Name()))
	}
	trials := make([]system.Trial, size)
	probes := make([]*probe, size)
	for i := range trials {
		trials[i] = system.Trial{
			// The probe is built on the worker that runs the trial:
			// state written every round never sits in caller-owned
			// slots that two workers write side by side. The worker
			// leaves only its pointer behind.
			User: func() (comm.Strategy, error) {
				p := &probe{cand: users.Strategy(i), sense: mkSense()}
				p.step = comm.InPlace(p.cand, &p.shim)
				probes[i] = p
				return p, nil
			},
			Server: server,
			World:  world,
			Config: system.Config{
				MaxRounds: cfg.MaxRounds,
				Seed:      cfg.Seed,
				Record:    system.RecordOff,
				Referee:   g,
			},
		}
	}

	results, errs := system.RunEach(trials, system.BatchConfig{Parallelism: cfg.Parallel})
	c := Certificate{Witness: -1}
	for i := range trials {
		achieved, positive := false, false
		if errs[i] == nil {
			achieved, positive = results[i].Achieved(Window), probes[i].eventuallyPositive()
			system.ReleaseResult(results[i])
		}
		if achieved && c.Witness < 0 {
			c.Witness = i
		}
		c.Viable = c.Viable || achieved && positive
		if errs[i] != nil || positive && !achieved {
			c.Unsafe = append(c.Unsafe, i)
		}
	}
	return c
}
