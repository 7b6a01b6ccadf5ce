package scenario

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/system"
)

// The verdicts Claims gives a row. Theorem 1 is an implication: if the
// server is helpful and sensing is safe and viable, the universal user
// achieves the goal.
const (
	Holds          = "holds"          // the theorem applies at every trial, and every trial succeeded
	Late           = "late"           // it applies, and each failed trial converges when rerun at 4x or 16x its horizon
	Counterexample = "counterexample" // it applies at a trial that still fails at 16x: this must never happen
	Outside        = "outside"        // a hypothesis fails at some trial, or the user is not universal
)

// lateHorizons are the multiples of its horizon a failed trial is rerun
// at before it counts as a counterexample.
var lateHorizons = []int{4, 16}

// Claim is one row's Theorem 1 verdict. Why explains every verdict but
// Holds: the first trial at which a hypothesis fails and which one (noting
// a row that succeeded anyway), the horizon multiple each failed trial
// converges at, or the trials that still fail at the largest.
type Claim struct {
	ID        string      `json:"id"`
	Axes      []AxisValue `json:"axes"`
	Trials    int         `json:"trials"`
	Successes int         `json:"successes"`
	Verdict   string      `json:"verdict"`
	Why       string      `json:"why,omitempty"`
}

// Claims sweeps the selected rows (nil means the whole matrix) as Sweep
// does, without calling cfg.OnStats, and gives each its verdict in
// selection order. At every trial's seed it certifies the hypothesis with
// harness.Certify on the row's own binding: goal, enumeration and sensing
// from Registry.Parts, the wrapped server and the world from
// Registry.Bind. A failed trial at which the hypothesis holds is rerun
// with its seed at 4x, then 16x, its horizon. Verdicts are judged at the
// certifier's window, so any other effective window is refused.
func (m *Matrix) Claims(indices []int64, cfg SweepConfig) ([]*Claim, error) {
	if cfg.Registry == nil {
		cfg.Registry = Builtin()
	}
	_, window, base := cfg.Effective(m.spec)
	if window != harness.Window {
		return nil, fmt.Errorf("scenario: claims judge at the certifier's window %d, not the sweep's window %d", harness.Window, window)
	}
	var stats []*Stats
	cfg.OnStats = func(st *Stats) error {
		stats = append(stats, st)
		return nil
	}
	if _, err := m.Sweep(indices, cfg); err != nil {
		return nil, err
	}
	seedFn := cfg.seedFn(base)
	claims := make([]*Claim, len(stats))
	for k, st := range stats {
		// A row's coordinates are its scenario.
		c, err := claim(cfg.Registry, &Scenario{Values: st.Axes}, st, seedFn, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		claims[k] = c
	}
	return claims, nil
}

// claim certifies one swept row.
func claim(reg *Registry, sc *Scenario, st *Stats, seedFn func(*Scenario, int) uint64, parallel int) (*Claim, error) {
	c := &Claim{ID: st.ID, Axes: st.Axes, Trials: st.Trials, Successes: st.Successes, Verdict: Holds}
	parts, ax, err := reg.Parts(sc)
	if err != nil {
		return nil, err
	}
	bind, err := reg.Bind(sc)
	if err != nil {
		return nil, err
	}
	horizon := bind.MaxRounds
	if horizon <= 0 {
		horizon = system.DefaultMaxRounds
	}
	outside, trials := "", st.Trials
	if ax.User == "oracle" { // the theorem promises nothing here: certify no trial
		outside, trials = "user not universal", 0
	}
	var late, fails []string
	for t := 0; t < trials; t++ {
		seed := seedFn(sc, t)
		cert := harness.Certify(parts.Goal, bind.World, parts.Sense, parts.Enum, bind.Server,
			harness.CertConfig{MaxRounds: horizon, Seed: seed, Parallel: parallel})
		hypothesis := ""
		switch {
		case cert.Witness < 0:
			hypothesis = "no helpful candidate"
		case len(cert.Unsafe) > 0:
			hypothesis = "sensing unsafe"
		case !cert.Viable:
			hypothesis = "sensing not viable"
		}
		if hypothesis != "" {
			if outside == "" {
				outside = fmt.Sprintf("trial %d: %s", t, hypothesis)
			}
			continue
		}
		if st.Successes == st.Trials {
			continue
		}
		// The theorem applies: a trial the sweep saw fail must converge.
		for k, mult := range append([]int{1}, lateHorizons...) {
			ok, err := converges(bind, seed, mult*horizon)
			if err != nil {
				return nil, fmt.Errorf("scenario: claims: %s trial %d: %w", st.ID, t, err)
			}
			if ok {
				if k > 0 {
					late = append(late, fmt.Sprintf("trial %d converges at %dx", t, mult))
				}
				break
			}
			if k == len(lateHorizons) {
				fails = append(fails, fmt.Sprintf("trial %d fails at %dx", t, mult))
			}
		}
	}
	switch {
	case len(fails) > 0:
		c.Verdict, c.Why = Counterexample, strings.Join(fails, ", ")
	case outside != "":
		c.Verdict, c.Why = Outside, outside
		if st.Successes == st.Trials {
			c.Why += "; succeeded anyway"
		}
	case len(late) > 0:
		c.Verdict, c.Why = Late, strings.Join(late, ", ")
	}
	return c, nil
}

// converges reruns one of b's trials with the given seed at the given
// horizon, as the sweep runs it, and reports whether it achieved the goal.
func converges(b *Binding, seed uint64, horizon int) (bool, error) {
	user, err := b.User()
	if err != nil {
		return false, err
	}
	res, err := system.Run(user, b.Server(), b.World(),
		system.Config{MaxRounds: horizon, Seed: seed, Record: system.RecordOff, Referee: b.Goal})
	if err != nil {
		return false, err
	}
	defer system.ReleaseResult(res)
	return res.Achieved(harness.Window), nil
}
