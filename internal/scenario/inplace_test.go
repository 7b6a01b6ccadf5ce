package scenario

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/system"
)

// The engine steps every party through comm.StepperTo and falls back to
// a shim for a party that has only Step. These tests pin both halves of
// that contract on the registry's own parties: everything it binds steps
// in place, and a run whose parties are hidden behind Step-only wrappers
// (the path a timing wrapper around a party takes) is the same run.

// contractSet is one builtin spec's matrix and the scenarios of it the
// contract is checked on.
type contractSet struct {
	m         *Matrix
	scenarios []*Scenario
}

// contractSets returns every scenario of the named builtin specs, except
// that "family" contributes a seeded 500-scenario sample.
func contractSets(t *testing.T, names ...string) map[string]contractSet {
	t.Helper()
	sets := make(map[string]contractSet, len(names))
	for _, name := range names {
		spec, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMatrix(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := int(m.Size())
		if name == "family" {
			n = 500
		}
		set := contractSet{m: m}
		for _, i := range m.Sample(n, 1) {
			set.scenarios = append(set.scenarios, m.At(i))
		}
		sets[name] = set
	}
	return sets
}

func TestBoundPartiesStepInPlace(t *testing.T) {
	t.Parallel()
	reg := Builtin()
	for name, set := range contractSets(t, "quick", "default", "adversarial", "family") {
		for _, sc := range set.scenarios {
			bind, err := reg.Bind(sc)
			if err != nil {
				t.Fatal(err)
			}
			user, err := bind.User()
			if err != nil {
				t.Fatal(err)
			}
			for role, p := range map[string]any{"user": user, "server": bind.Server(), "world": bind.World()} {
				if _, ok := p.(comm.StepperTo); !ok {
					t.Errorf("%s %s: %s %T has no StepTo", name, sc.ID(), role, p)
				}
			}
			parts, _, err := reg.Parts(sc)
			if err != nil {
				t.Fatal(err)
			}
			size := parts.Enum.Size()
			if size == enumerate.Unbounded {
				t.Fatalf("%s %s: unbounded enumeration %s", name, sc.ID(), parts.Enum.Name())
			}
			for k := 0; k < size; k++ {
				if cand := parts.Enum.Strategy(k); cand == nil {
					t.Errorf("%s %s: candidate %d of %s is nil", name, sc.ID(), k, parts.Enum.Name())
				} else if _, ok := cand.(comm.StepperTo); !ok {
					t.Errorf("%s %s: candidate %d %T has no StepTo", name, sc.ID(), k, cand)
				}
			}
		}
	}
}

// stepOnly hides a strategy's StepTo (and Halted): embedding the
// interface promotes only Reset and Step.
type stepOnly struct{ comm.Strategy }

// stepOnlyHalter is stepOnly for a user that halts.
type stepOnlyHalter struct {
	stepOnly
	comm.Halter
}

// stepOnlyWorld hides a world's StepTo; Snapshot stays.
type stepOnlyWorld struct{ goal.World }

func hideStepTo(s comm.Strategy) comm.Strategy {
	if h, ok := s.(comm.Halter); ok {
		return &stepOnlyHalter{stepOnly{s}, h}
	}
	return &stepOnly{s}
}

// verdict is what a sweep keeps of one trial's result.
type verdict struct {
	rounds   int
	achieved bool
	lastBad  int
	messages int
}

func TestStepOnlyPartiesMatchInPlace(t *testing.T) {
	t.Parallel()
	reg := Builtin()
	for name, set := range contractSets(t, "quick", "adversarial") {
		seeds, window, base := SweepConfig{}.Effective(set.m.Spec())
		for _, sc := range set.scenarios {
			bind, err := reg.Bind(sc)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < seeds; trial++ {
				run := func(hide bool) verdict {
					user, err := bind.User()
					if err != nil {
						t.Fatal(err)
					}
					srv, world := bind.Server(), bind.World()
					if hide {
						user, srv, world = hideStepTo(user), hideStepTo(srv), &stepOnlyWorld{world}
						if _, ok := user.(comm.StepperTo); ok {
							t.Fatal("the Step-only wrapper still steps in place")
						}
					}
					res, err := system.Run(user, srv, world, system.Config{
						MaxRounds: bind.MaxRounds,
						Seed:      TrialSeed(base, sc, trial),
						Record:    system.RecordOff,
						Referee:   bind.Goal,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer system.ReleaseResult(res)
					return verdict{res.Rounds, res.Achieved(window), res.LastUnacceptable, res.Messages}
				}
				if in, out := run(false), run(true); in != out {
					t.Errorf("%s %s trial %d: in place %+v, Step-only %+v", name, sc.ID(), trial, in, out)
				}
			}
		}
	}
}
