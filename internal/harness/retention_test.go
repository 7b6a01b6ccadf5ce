package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/goals/printing"
	"repro/internal/obs"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/xrand"
)

// refOutcome is what the reference reads off one recorded run.
type refOutcome struct {
	achieved, positive bool
	err                error
}

// refRun runs one (candidate, server) pair on its own in the world of the
// given env, recording everything, then replays a fresh sense over the
// complete view and judges the complete history.
func refRun(g goal.CompactGoal, mkSense func() sensing.Sense, user, srv comm.Strategy, env int, cfg CertConfig) refOutcome {
	res, err := system.Run(user, srv, g.NewWorld(goal.Env{Choice: env}),
		system.Config{MaxRounds: cfg.MaxRounds, Seed: cfg.Seed})
	if err != nil {
		return refOutcome{err: err}
	}
	// Eventually positive: no negative indication in the final window.
	sense := mkSense()
	sense.Reset()
	n := len(res.View.Rounds)
	positive := n >= Window
	for r := range res.View.Rounds {
		if !sense.Observe(&res.View.Rounds[r]) && r >= n-Window {
			positive = false
		}
	}
	return refOutcome{achieved: goal.CompactAchieved(g, res.History, Window), positive: positive}
}

// refCertify is a serial, full-recording reference for Certify: every
// pair runs on its own through refRun in the world of the given env, and
// the three verdicts are read off the outcomes in Certify's order.
func refCertify(
	g goal.CompactGoal,
	env int,
	mkSense func() sensing.Sense,
	users enumerate.Enumerator,
	servers []func() comm.Strategy,
	cfg CertConfig,
) []Certificate {
	certs := make([]Certificate, len(servers))
	for si, mkServer := range servers {
		c := Certificate{Witness: -1}
		for i := 0; i < users.Size(); i++ {
			r := refRun(g, mkSense, users.Strategy(i), mkServer(), env, cfg)
			if c.Witness < 0 && r.achieved {
				c.Witness = i
			}
			c.Viable = c.Viable || r.achieved && r.positive
			if r.err != nil || r.positive && !r.achieved {
				c.Unsafe = append(c.Unsafe, i)
			}
		}
		certs[si] = c
	}
	return certs
}

// failingServer is silent and fails its tenth step, so every run longer
// than nine rounds against it errors.
type failingServer struct{ steps int }

func (s *failingServer) Reset(*xrand.Rand) { s.steps = 0 }

func (s *failingServer) Step(comm.Inbox) (comm.Outbox, error) {
	if s.steps++; s.steps == 10 {
		return comm.Outbox{}, errors.New("failing server: tenth step")
	}
	return comm.Outbox{}, nil
}

// certCase is one certification, of every server in one env, that the
// reference checks.
type certCase struct {
	name    string
	g       goal.CompactGoal
	env     int
	sense   func() sensing.Sense
	users   enumerate.Enumerator
	servers []func() comm.Strategy
	cfg     CertConfig
}

// certCases covers control in each of its 8 environments and printing
// with each of 2 documents; the stock, trusting and paranoid senses;
// horizons before and after convergence; a class in which two candidates
// reach the goal with each server; and a server whose every long run
// fails.
func certCases(t *testing.T) []certCase {
	t.Helper()
	failing := func() comm.Strategy { return &failingServer{} }

	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 3)
	if err != nil {
		t.Fatal(err)
	}
	printers := []func() comm.Strategy{server.Obstinate, func() comm.Strategy { return &printing.LyingServer{} }, failing}
	for i := 0; i < fam.Size(); i++ {
		d := fam.Dialect(i)
		printers = append(printers, func() comm.Strategy { return server.Dialected(&printing.Server{}, d) })
	}
	docs := &printing.Goal{Docs: []string{"memo", "report"}}
	// Candidates i and i+3 speak the same dialect.
	twice := enumerate.FromFunc("printing/twice", 2*fam.Size(), func(i int) comm.Strategy {
		return &printing.Candidate{D: fam.Dialect(i % fam.Size())}
	})

	units, err := control.NewUnitsFamily(4)
	if err != nil {
		t.Fatal(err)
	}
	controllers := []func() comm.Strategy{server.Obstinate, failing}
	for i := 0; i < units.Size(); i++ {
		d := units.Dialect(i)
		controllers = append(controllers, func() comm.Strategy { return server.Dialected(&control.Server{}, d) })
	}
	plant := &control.Goal{Span: 20}

	var cases []certCase
	for _, rounds := range []int{12, 120} {
		for env := 0; env < docs.EnvChoices(); env++ {
			for _, s := range []struct {
				name string
				mk   func() sensing.Sense
			}{
				{"stock", func() sensing.Sense { return printing.Sense(0) }},
				{"trusting", printing.TrustingSense},
				{"paranoid", func() sensing.Sense { return printing.ParanoidSense(0) }},
			} {
				cases = append(cases, certCase{
					fmt.Sprintf("printing/%s/%d/env%d", s.name, rounds, env), docs, env, s.mk,
					printing.Enum(fam), printers, CertConfig{MaxRounds: rounds, Seed: 1},
				})
			}
			cases = append(cases, certCase{
				fmt.Sprintf("printing/twice/%d/env%d", rounds, env), docs, env, func() sensing.Sense { return printing.Sense(0) },
				twice, printers, CertConfig{MaxRounds: rounds, Seed: 2},
			})
		}
	}
	for _, rounds := range []int{20, 200} {
		for env := 0; env < plant.EnvChoices(); env++ {
			cases = append(cases, certCase{
				fmt.Sprintf("control/stock/%d/env%d", rounds, env), plant, env, func() sensing.Sense { return control.Sense(0) },
				control.Enum(units), controllers, CertConfig{MaxRounds: rounds, Seed: 1},
			})
		}
	}
	return cases
}

// TestWindowedRetentionMatchesFullRecording is the acceptance check for
// one-pass online certification: Certify — which records nothing, lets
// the engine judge each run (system.Config.Referee) and senses through a
// probe that steps the candidate — must produce exactly the certificates
// of the serial, full-recording reference, at Parallel 1 and 2.
func TestWindowedRetentionMatchesFullRecording(t *testing.T) {
	t.Parallel()

	for _, tc := range certCases(t) {
		want := refCertify(tc.g, tc.env, tc.sense, tc.users, tc.servers, tc.cfg)
		for _, parallel := range []int{1, 2} {
			cfg := tc.cfg
			cfg.Parallel = parallel
			got := certifyAll(tc.g, tc.env, tc.sense, tc.users, tc.servers, cfg)
			if len(got) != len(want) {
				t.Fatalf("%s at Parallel %d: %d certificates, want %d", tc.name, parallel, len(got), len(want))
			}
			for si := range want {
				if !reflect.DeepEqual(got[si], want[si]) {
					t.Errorf("%s at Parallel %d, server %d:\n got  %+v\n want %+v", tc.name, parallel, si, got[si], want[si])
					break
				}
			}
		}
	}
}

// TestCertifyRunsEachPairingOnce pins the cost of certification: one
// Certify call per server starts exactly candidates × servers trials. It
// reads the engine's process-wide trial counter, so it does not run in
// parallel with the package's other tests.
func TestCertifyRunsEachPairingOnce(t *testing.T) {
	trials := obs.Default().Counter("goalsweep_engine_trials_started_total",
		"Trials handed to the batch engine.")
	for _, tc := range certCases(t) {
		before := trials.Value()
		certifyAll(tc.g, tc.env, tc.sense, tc.users, tc.servers, tc.cfg)
		if got, want := trials.Value()-before, int64(tc.users.Size()*len(tc.servers)); got != want {
			t.Errorf("%s: %d trials started, want %d", tc.name, got, want)
		}
	}
}
