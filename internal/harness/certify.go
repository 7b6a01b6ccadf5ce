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
	// Envs is how many environment choices to sweep; 0 means the goal's
	// EnvChoices.
	Envs int
	// Parallel bounds the certification worker pool; values < 1 mean
	// GOMAXPROCS. Results are identical at every setting.
	Parallel int
}

func (c CertConfig) envs(g goal.CompactGoal) int {
	if c.Envs > 0 {
		return c.Envs
	}
	return g.EnvChoices()
}

// window is the convergence window compact goals are certified by.
const window = 10

// Violation records one certification failure.
type Violation struct {
	// Kind names the violated property: "safety" or "viability".
	Kind string `json:"kind"`
	// Server and Env identify the failing configuration; Candidate is
	// the strategy index where applicable (-1 otherwise).
	Server    int `json:"server"`
	Env       int `json:"env"`
	Candidate int `json:"candidate"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s violation (server %d, env %d, candidate %d): %s",
		v.Kind, v.Server, v.Env, v.Candidate, v.Detail)
}

// Certificate is one server's three verdicts, read off the same runs:
// every candidate paired with the server from every swept environment.
type Certificate struct {
	// Witness is the first candidate that achieves the goal with the
	// server from every environment, or -1: the server is helpful for
	// the class iff Witness >= 0. A failed run counts against its
	// candidate.
	Witness int
	// Safety lists, in (candidate, env) order, the runs whose
	// indications were eventually always positive although the goal was
	// not achieved, and the runs that failed.
	Safety []Violation
	// Viability lists, in env order, the environments from which no
	// candidate achieves the goal while earning eventually always
	// positive indications. It is meaningful only for a helpful server.
	Viability []Violation
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
// final window rounds (the empirical reading of "only finitely many
// negative indications").
func (p *probe) eventuallyPositive() bool { return p.streak >= window }

// Certify certifies the hypotheses of Theorem 1 for a compact goal: the
// helpfulness of each server for the candidate class users, and the
// safety and viability of the sensing function mkSense returns (a fresh
// Sense per call) against it. It runs each server's pairings — every
// candidate from every swept environment — exactly once, in one batch,
// and returns one Certificate per server, in order. Every candidate runs,
// so users must be bounded.
//
// A run is achieved when its final window rounds were acceptable, and
// positive when its final window indications were. Safety requires that
// every positive run be achieved; viability that from every environment
// some candidate's run be both.
func Certify(
	g goal.CompactGoal,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Certificate {
	size, envs := users.Size(), cfg.envs(g)
	if size == enumerate.Unbounded {
		panic(fmt.Sprintf("harness: Certify needs a bounded class, %q is unbounded", users.Name()))
	}
	// One batch per server, candidate-major; only the server changes
	// from batch to batch.
	trials := make([]system.Trial, size*envs)
	probes := make([]*probe, len(trials))
	for t := range trials {
		i, env := t/envs, t%envs
		trials[t] = system.Trial{
			// The probe is built on the worker that runs the trial:
			// state written every round never sits in caller-owned
			// slots that two workers write side by side. The worker
			// leaves only its pointer behind.
			User: func() (comm.Strategy, error) {
				p := &probe{cand: users.Strategy(i), sense: mkSense()}
				p.step = comm.InPlace(p.cand, &p.shim)
				probes[t] = p
				return p, nil
			},
			World: func() goal.World { return g.NewWorld(goal.Env{Choice: env}) },
			Config: system.Config{
				MaxRounds: cfg.MaxRounds,
				Seed:      cfg.Seed,
				Record:    system.RecordOff,
				Referee:   g,
			},
		}
	}

	certs := make([]Certificate, len(servers))
	viable := make([]bool, envs)
	for si, mkServer := range servers {
		for t := range trials {
			trials[t].Server = mkServer
		}
		results, errs := system.RunEach(trials, system.BatchConfig{Parallelism: cfg.Parallel})
		c := &certs[si]
		c.Witness = -1
		clear(viable)
		for i := 0; i < size; i++ {
			helpful := true
			for env := 0; env < envs; env++ {
				t := i*envs + env
				achieved, positive := false, false
				if errs[t] == nil {
					achieved, positive = results[t].Achieved(window), probes[t].eventuallyPositive()
					system.ReleaseResult(results[t])
				} else {
					c.Safety = append(c.Safety, Violation{
						Kind: "safety", Server: si, Env: env, Candidate: i,
						Detail: fmt.Sprintf("execution error: %v", errs[t]),
					})
				}
				helpful = helpful && achieved
				viable[env] = viable[env] || achieved && positive
				if positive && !achieved {
					c.Safety = append(c.Safety, Violation{
						Kind: "safety", Server: si, Env: env, Candidate: i,
						Detail: "indications eventually positive but goal not achieved",
					})
				}
			}
			if helpful && c.Witness < 0 {
				c.Witness = i
			}
		}
		for env, ok := range viable {
			if !ok {
				c.Viability = append(c.Viability, Violation{
					Kind: "viability", Server: si, Env: env, Candidate: -1,
					Detail: "no candidate earns lasting positive indications while achieving the goal",
				})
			}
		}
	}
	return certs
}
