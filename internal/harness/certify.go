package harness

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
)

// CertConfig parameterizes empirical certification runs.
//
// Certification executes through system.RunEach, and every trial is
// observed online, round by round: the engine judges the goal
// (system.Config.Referee) and records nothing, and sensing indications
// are computed as the view unfolds instead of by replaying a recorded
// one.
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

func (c CertConfig) batch() system.BatchConfig {
	return system.BatchConfig{Parallelism: c.Parallel}
}

// chunk is how many candidates a chunked search runs per batch: enough to
// feed the worker pool while keeping the early-exit waste bounded.
func (c CertConfig) chunk() int {
	n := c.Parallel
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 4 {
		n = 4
	}
	return n
}

// window is the convergence window compact goals are certified by.
const window = 10

// probeCap bounds the candidate prefix examined for unbounded classes.
const probeCap = 64

func boundedSize(e enumerate.Enumerator) int {
	if size := e.Size(); size != enumerate.Unbounded {
		return size
	}
	return probeCap
}

// Violation records one certification failure.
type Violation struct {
	// Kind names the violated property ("safety", "viability",
	// "helpfulness", "forgiving").
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

// probe feeds one certification trial to the sensing function under
// test through the engine's live round hook, as the view unfolds; the
// engine judges the goal itself. This replaces history recording plus
// replay.
type probe struct {
	sense  sensing.Sense
	rv     comm.RoundView // the round sense reads, by pointer
	rounds int
	streak int
}

// newProbe returns a probe feeding a fresh sensing function from mkSense.
func newProbe(mkSense func() sensing.Sense) *probe {
	p := &probe{sense: mkSense()}
	p.sense.Reset()
	return p
}

func (p *probe) onRound(_ int, rv comm.RoundView, _ goal.World) {
	p.rounds++
	p.rv = rv
	if p.sense.Observe(&p.rv) {
		p.streak++
	} else {
		p.streak = 0
	}
}

// eventuallyPositive reports whether the indication sequence was positive
// on the final window rounds (the empirical reading of "only finitely many
// negative indications").
func (p *probe) eventuallyPositive() bool {
	return p.rounds >= window && p.streak >= window
}

// certTrial builds the standard certification trial for one
// (candidate, server, env) triple, judged by the engine and, when p is
// non-nil, sensed by p; it records nothing.
func certTrial(
	g goal.CompactGoal,
	users enumerate.Enumerator,
	candidate int,
	mkServer func() comm.Strategy,
	env int,
	p *probe,
	cfg CertConfig,
) system.Trial {
	t := system.Trial{
		User:   func() (comm.Strategy, error) { return users.Strategy(candidate), nil },
		Server: mkServer,
		World:  func() goal.World { return g.NewWorld(goal.Env{Choice: env}) },
		Config: system.Config{
			MaxRounds: cfg.MaxRounds,
			Seed:      cfg.Seed,
			Record:    system.RecordOff,
			Referee:   g,
		},
	}
	if p != nil {
		t.Config.OnRoundLive = p.onRound
	}
	return t
}

// chunkedFound reports whether some candidate achieves the goal while
// earning eventually-always-positive indications against one (server,
// env) pairing, scanning the class in parallel chunks with early exit
// between chunks. Failed trials count as negative.
func chunkedFound(
	g goal.CompactGoal,
	users enumerate.Enumerator,
	mkServer func() comm.Strategy,
	env int,
	mkSense func() sensing.Sense,
	cfg CertConfig,
) bool {
	size := boundedSize(users)
	for base := 0; base < size; base += cfg.chunk() {
		hi := min(base+cfg.chunk(), size)
		trials := make([]system.Trial, 0, hi-base)
		probes := make([]*probe, 0, hi-base)
		for i := base; i < hi; i++ {
			p := newProbe(mkSense)
			probes = append(probes, p)
			trials = append(trials, certTrial(g, users, i, mkServer, env, p, cfg))
		}
		results, errs := system.RunEach(trials, cfg.batch())
		found := false
		for t, p := range probes {
			if errs[t] == nil && p.eventuallyPositive() && results[t].Achieved(window) {
				found = true
			}
			system.ReleaseResult(results[t])
		}
		if found {
			return true
		}
	}
	return false
}

// HelpfulCompact reports whether the server is helpful for the compact goal
// with respect to the candidate class: some enumerated candidate achieves
// the goal when paired with it, from every swept environment. It returns
// the first witnessing candidate index (or -1). Candidates are probed in
// parallel chunks; the returned witness is the same as a serial scan's.
// Failed trials count as a negative verdict for their candidate.
func HelpfulCompact(
	g goal.CompactGoal,
	mkServer func() comm.Strategy,
	users enumerate.Enumerator,
	cfg CertConfig,
) (bool, int) {
	size := boundedSize(users)
	envs := cfg.envs(g)
	for base := 0; base < size; base += cfg.chunk() {
		hi := min(base+cfg.chunk(), size)
		trials := make([]system.Trial, 0, (hi-base)*envs)
		for i := base; i < hi; i++ {
			for env := 0; env < envs; env++ {
				trials = append(trials, certTrial(g, users, i, mkServer, env, nil, cfg))
			}
		}
		results, errs := system.RunEach(trials, cfg.batch())
		witness := -1
		for i := base; i < hi && witness < 0; i++ {
			good := true
			for env := 0; env < envs; env++ {
				t := (i-base)*envs + env
				if errs[t] != nil || !results[t].Achieved(window) {
					good = false
					break
				}
			}
			if good {
				witness = i
			}
		}
		for _, res := range results {
			system.ReleaseResult(res)
		}
		if witness >= 0 {
			return true, witness
		}
	}
	return false, -1
}

// CertifySafetyCompact checks the safety of a sensing function for a
// compact goal against a set of server factories: whenever a pairing's
// indications are eventually always positive, the execution must achieve
// the goal. mkSense must return a fresh Sense per call; users enumerates
// the user strategies to pair (typically the candidate class itself).
func CertifySafetyCompact(
	g goal.CompactGoal,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Violation {
	var violations []Violation
	size := boundedSize(users)
	envs := cfg.envs(g)
	for si, mkServer := range servers {
		// One batch per server: candidates × envs, judged in order.
		trials := make([]system.Trial, 0, size*envs)
		probes := make([]*probe, 0, size*envs)
		for i := 0; i < size; i++ {
			for env := 0; env < envs; env++ {
				p := newProbe(mkSense)
				probes = append(probes, p)
				trials = append(trials, certTrial(g, users, i, mkServer, env, p, cfg))
			}
		}
		results, errs := system.RunEach(trials, cfg.batch())
		for t := range trials {
			i, env := t/envs, t%envs
			if errs[t] != nil {
				violations = append(violations, Violation{
					Kind: "safety", Server: si, Env: env, Candidate: i,
					Detail: fmt.Sprintf("execution error: %v", errs[t]),
				})
				continue
			}
			if probes[t].eventuallyPositive() && !results[t].Achieved(window) {
				violations = append(violations, Violation{
					Kind: "safety", Server: si, Env: env, Candidate: i,
					Detail: "indications eventually positive but goal not achieved",
				})
			}
			system.ReleaseResult(results[t])
		}
	}
	return violations
}

// CertifyViabilityCompact checks viability: for every server in the list
// (all assumed helpful), some candidate achieves the goal *and* earns
// eventually-always-positive indications. One violation is reported per
// server lacking such a candidate.
func CertifyViabilityCompact(
	g goal.CompactGoal,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Violation {
	var violations []Violation
	for si, mkServer := range servers {
		for env := 0; env < cfg.envs(g); env++ {
			if !chunkedFound(g, users, mkServer, env, mkSense, cfg) {
				violations = append(violations, Violation{
					Kind: "viability", Server: si, Env: env, Candidate: -1,
					Detail: "no candidate earns lasting positive indications while achieving the goal",
				})
			}
		}
	}
	return violations
}
