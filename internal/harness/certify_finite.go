package harness

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/system"
)

// HelpfulFinite reports whether the server is helpful for the finite goal
// with respect to the candidate class: some enumerated candidate halts with
// an acceptable history when paired with it, on every swept environment.
// It returns the first witnessing candidate index (or -1). cfg.MaxRounds
// bounds each probe execution. Candidates are probed in parallel chunks;
// the returned witness matches a serial scan's.
func HelpfulFinite(
	g goal.FiniteGoal,
	mkServer func() comm.Strategy,
	enum enumerate.Enumerator,
	cfg CertConfig,
) (bool, int) {
	return chunkedWitness(g, enum, mkServer, cfg, func(res *system.Result, _ *probe) bool {
		return res.Halted && g.Achieved(res.History)
	})
}

// CertifySafetyFinite checks finite-goal safety: a positive final sensing
// indication on a halted execution must imply the referee accepts the
// history. Every (candidate, server, env) triple is probed.
func CertifySafetyFinite(
	g goal.FiniteGoal,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Violation {
	var violations []Violation
	size := boundedSize(users)
	envs := cfg.envs(g)
	for si, mkServer := range servers {
		trials := make([]system.Trial, 0, size*envs)
		probes := make([]*probe, 0, size*envs)
		for i := 0; i < size; i++ {
			for env := 0; env < envs; env++ {
				p := newProbe(g, mkSense)
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
			if results[t].Halted && probes[t].last && !g.Achieved(results[t].History) {
				violations = append(violations, Violation{
					Kind: "safety", Server: si, Env: env, Candidate: i,
					Detail: "positive verdict on a rejected halted history",
				})
			}
			system.ReleaseResult(results[t])
		}
	}
	return violations
}

// CertifyViabilityFinite checks finite-goal viability: for every server in
// the list, some candidate halts with a positive final sensing indication
// on every swept environment.
func CertifyViabilityFinite(
	g goal.FiniteGoal,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Violation {
	var violations []Violation
	for si, mkServer := range servers {
		for env := 0; env < cfg.envs(g); env++ {
			found := chunkedFound(g, users, mkServer, env, mkSense, cfg,
				func(res *system.Result, p *probe) bool {
					return res.Halted && p.last
				})
			if !found {
				violations = append(violations, Violation{
					Kind: "viability", Server: si, Env: env, Candidate: -1,
					Detail: "no candidate halts with a positive verdict",
				})
			}
		}
	}
	return violations
}
