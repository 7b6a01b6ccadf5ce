// Package repro's root benchmark suite regenerates every table and figure
// of the evaluation (README, "Running the experiments") under the Go
// benchmark harness, plus micro-benchmarks for the engine's hot paths.
//
// Table/figure benches run the corresponding experiment at reduced (Quick)
// scale per iteration so `go test -bench=.` stays tractable; the full-scale
// numbers are produced by `go run ./cmd/goalsim -experiment all`.
package repro

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/experiments"
	"repro/internal/fst"
	"repro/internal/goal"
	"repro/internal/goals/delegation"
	"repro/internal/goals/learning"
	"repro/internal/goals/printing"
	"repro/internal/goals/treasure"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1Universality regenerates Table T1 (universality across the
// dialected-printer class).
func BenchmarkT1Universality(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkT2Overhead regenerates Table T2 (enumeration overhead on the
// password-vault class).
func BenchmarkT2Overhead(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkT3FiniteLevin regenerates Table T3 (finite-goal Levin search on
// the delegation goal).
func BenchmarkT3FiniteLevin(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkT4SensingAblation regenerates Table T4 (safety/viability
// ablation).
func BenchmarkT4SensingAblation(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkT5Beliefs regenerates Table T5 (compatible-beliefs speedup).
func BenchmarkT5Beliefs(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkT6Multiparty regenerates Table T6 (multi-party reduction).
func BenchmarkT6Multiparty(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkF1LearningCurves regenerates Figure F1 (learning curves).
func BenchmarkF1LearningCurves(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkF2SwitchTrace regenerates Figure F2 (universal-user switch
// trace).
func BenchmarkF2SwitchTrace(b *testing.B) { benchExperiment(b, "F2") }

// --- micro-benchmarks: engine and substrate hot paths ---

// BenchmarkEngineRound measures raw engine throughput: rounds/sec of a
// silent three-party system, under each record policy. The full
// sub-benchmark is the recording baseline; off shows the allocation win of
// judging online instead. stack is the cost of a round through wrapper
// layers, next to the silent off baseline: a universal printing user
// against a noisy, slow, dialected printer, judged online by the engine.
// Results are released back to the engine pool, as batch hot paths do.
func BenchmarkEngineRound(b *testing.B) {
	const rounds = 1000
	run := func(b *testing.B, usr, srv comm.Strategy, w goal.World, cfg system.Config) {
		cfg.MaxRounds, cfg.Seed = rounds, 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := system.Run(usr, srv, w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			system.ReleaseResult(res)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
	}
	for _, bc := range []struct {
		name string
		rec  system.RecordPolicy
	}{
		{"full", system.RecordFull},
		{"off", system.RecordOff},
	} {
		b.Run(bc.name, func(b *testing.B) {
			run(b, &treasure.Candidate{Guess: 0}, server.Obstinate(), &treasure.World{},
				system.Config{Record: bc.rec})
		})
	}
	b.Run("stack", func(b *testing.B) {
		fam, err := dialect.NewWordFamily(printing.Vocabulary(), 8)
		if err != nil {
			b.Fatal(err)
		}
		usr, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
		if err != nil {
			b.Fatal(err)
		}
		srv := server.Noisy(server.Slow(server.Dialected(&printing.Server{}, fam.Dialect(5)), 2), 0.1)
		g := &printing.Goal{}
		run(b, usr, srv, g.NewWorld(goal.Env{}),
			system.Config{Record: system.RecordOff, Referee: g})
	})
}

// BenchmarkRunBatch measures batch scheduling: 64 independent
// password-vault trials per iteration, serial vs the GOMAXPROCS pool.
func BenchmarkRunBatch(b *testing.B) {
	mkTrials := func() []system.Trial {
		trials := make([]system.Trial, 64)
		for t := range trials {
			trials[t] = system.Trial{
				User:   func() (comm.Strategy, error) { return &treasure.Candidate{Guess: t % 8}, nil },
				Server: func() comm.Strategy { return &treasure.Server{Secret: t % 8} },
				World:  func() goal.World { return &treasure.World{} },
				Config: system.Config{MaxRounds: 500, Seed: uint64(t + 1), Record: system.RecordOff},
			}
		}
		return trials
	}
	for _, bc := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := system.RunBatch(mkTrials(), system.BatchConfig{Parallelism: bc.parallel})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					system.ReleaseResult(res)
				}
			}
		})
	}
}

// BenchmarkCompactUserConvergence measures a full universal-user
// convergence on the printing goal (N=16, worst-case server).
func BenchmarkCompactUserConvergence(b *testing.B) {
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 16)
	if err != nil {
		b.Fatal(err)
	}
	g := &printing.Goal{}
	srvD := fam.Dialect(15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
		if err != nil {
			b.Fatal(err)
		}
		res, err := system.Run(u, server.Dialected(&printing.Server{}, srvD),
			g.NewWorld(goal.Env{}), system.Config{MaxRounds: 800, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !goal.CompactAchieved(g, res.History, 10) {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkDialectEncode measures word-dialect encoding of a typical
// printing command.
func BenchmarkDialectEncode(b *testing.B) {
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 4)
	if err != nil {
		b.Fatal(err)
	}
	d := fam.Dialect(3)
	msg := comm.Message("PRINT the quarterly report 2026")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Encode(msg)
	}
}

// BenchmarkFSTDecode measures mixed-radix decoding of finite-state
// transducers from their enumeration index.
func BenchmarkFSTDecode(b *testing.B) {
	space := fst.Space{NumStates: 4, NumIn: 4, NumOut: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := space.Machine(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsetSumSolve measures the delegation server's witness search.
func BenchmarkSubsetSumSolve(b *testing.B) {
	r := xrand.New(5)
	ins := delegation.Generate(16, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ins.Solve(); !ok {
			b.Fatal("unsolvable")
		}
	}
}

// BenchmarkHalvingLearner measures a full halving-algorithm run on the
// prediction goal (M=256).
func BenchmarkHalvingLearner(b *testing.B) {
	g := &learning.Goal{M: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := g.NewWorld(goal.Env{Choice: 100})
		if _, err := system.Run(&learning.HalvingUser{M: 256}, server.Obstinate(), w,
			system.Config{MaxRounds: 2000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerationStrategy measures candidate instantiation, the inner
// loop of every universal user.
func BenchmarkEnumerationStrategy(b *testing.B) {
	enum := treasure.Enum(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enum.Strategy(i)
	}
}
