package experiments

import (
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/goals/treasure"
	"repro/internal/harness"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

// RunT5 measures the compatible-beliefs speedup: when the server's secret
// is drawn from a prior the user shares, enumerating candidates in order of
// decreasing prior mass cuts the expected number of candidates tried from
// ~N/2 (uniform order under a concentrated prior is even worse than that
// when mass sits on arbitrary indices — here the prior is over indices, so
// uniform order pays the expected index) down to the prior's expected rank.
func RunT5(cfg Config) (*harness.Report, error) {
	n := 64
	trials := 200
	if cfg.Quick {
		n = 16
		trials = 40
	}
	exponents := []float64{0, 1, 2}

	tbl := &harness.Table{
		ID:      "T5",
		Title:   "compatible beliefs: candidates tried under Zipf(s) server priors",
		Columns: []string{"zipf s", "order", "mean tried", "analytic E[rank]", "mean rounds"},
		Notes: []string{
			fmt.Sprintf("N=%d password servers, %d trials, secret ~ Zipf(s)", n, trials),
			"tried = index of the universal user's final candidate + 1",
			"belief order sorts candidates by decreasing prior mass (Juba–Sudan ICS'11 direction)",
		},
	}

	g := &treasure.Goal{}
	horizon := 40 * n

	// The prior concentrates on arbitrary indices (a seeded permutation
	// of Zipf ranks): index i carries the mass of rank perm[i]. Without
	// this, a Zipf prior over indices would coincide with index order
	// and the belief effect would be invisible.
	perm := xrand.New(cfg.seed() + 99).Perm(n)

	for _, s := range exponents {
		zipf, err := beliefs.Zipf(n, s)
		if err != nil {
			return nil, fmt.Errorf("T5: %w", err)
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = zipf.Weight(perm[i])
		}
		prior, err := beliefs.FromWeights(weights)
		if err != nil {
			return nil, fmt.Errorf("T5: %w", err)
		}

		type variant struct {
			name string
			enum enumerate.Enumerator
		}
		beliefEnum, err := beliefs.Reorder(treasure.Enum(n), prior)
		if err != nil {
			return nil, fmt.Errorf("T5: %w", err)
		}
		variants := []variant{
			{"index order", treasure.Enum(n)},
			{"belief order", beliefEnum},
		}

		for _, v := range variants {
			enum := v.enum
			r := xrand.New(cfg.seed() + uint64(s*1000))
			secrets := make([]int, trials)
			users := make([]*universal.CompactUser, trials)
			trackers := make([]goal.Tracker, trials)
			batch := make([]system.Trial, trials)
			for trial := 0; trial < trials; trial++ {
				secrets[trial] = prior.Sample(r)
				trackers[trial] = goal.NewTracker(g)
				batch[trial] = system.Trial{
					User: func() (comm.Strategy, error) {
						u, err := universal.NewCompactUser(enum, treasure.Sense(0))
						users[trial] = u
						return u, err
					},
					Server: func() comm.Strategy {
						return &treasure.Server{Secret: secrets[trial]}
					},
					World: func() goal.World { return g.NewWorld(goal.Env{}) },
					Config: system.Config{
						MaxRounds: horizon, Seed: cfg.seed() + uint64(trial),
						Record: system.RecordOff, OnRoundLive: trackers[trial].Observe,
					},
				}
			}
			if _, err := system.RunBatch(batch, cfg.batch()); err != nil {
				return nil, fmt.Errorf("T5: %w", err)
			}

			var tried, rounds []float64
			for trial, tr := range trackers {
				if !tr.Achieved(5) {
					return nil, fmt.Errorf("T5: trial %d (secret %d) failed", trial, secrets[trial])
				}
				tried = append(tried, float64(users[trial].Index()%n+1))
				rounds = append(rounds, float64(tr.LastUnacceptable()))
			}

			analytic := "-"
			if v.name == "belief order" {
				analytic = harness.F(prior.ExpectedRank())
			}
			tbl.AddRow(
				fmt.Sprintf("%.1f", s),
				v.name,
				harness.F(harness.Mean(tried)),
				analytic,
				harness.F(harness.Mean(rounds)),
			)
		}
	}
	return &harness.Report{Tables: []*harness.Table{tbl}}, nil
}
