// Allocation-discipline and fast-path-parity pins for the engine hot
// path: the steady-state round loop of every stock goal must stay within
// its allocation budget under RecordOff, and the online referee — a
// goal.Tracker on the live world — must reach the verdicts of the
// recorded-history referee it replaces.
package repro

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/fst"
	"repro/internal/goal"
	"repro/internal/goals/control"
	"repro/internal/goals/delegation"
	"repro/internal/goals/fsm"
	"repro/internal/goals/learning"
	"repro/internal/goals/printing"
	"repro/internal/goals/transfer"
	"repro/internal/goals/treasure"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

// goalSetup assembles one (goal, user, server, world) system the way the
// sweep registry would. Parties are rebuilt per execution via the
// factories; the goal may be nil for finite goals (no compact referee).
type goalSetup struct {
	name   string
	g      goal.CompactGoal
	user   func() comm.Strategy
	server func() comm.Strategy
	world  func() goal.World
	rounds int
}

// stockSetups covers the six stock goals plus a generated fsm goal with
// protocol-faithful parties: a matching candidate against its class
// server, so executions reach and hold the goal's steady state (the
// regime sweeps spend their rounds in).
func stockSetups(t testing.TB) []goalSetup {
	t.Helper()
	printFam, err := dialect.NewWordFamily(printing.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	transFam, err := dialect.NewWordFamily(transfer.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	delFam, err := dialect.NewWordFamily(delegation.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	unitsFam, err := control.NewUnitsFamily(4)
	if err != nil {
		t.Fatal(err)
	}
	fsmFam, err := dialect.NewWordFamily(fsm.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	printGoal := &printing.Goal{}
	transGoal := &transfer.Goal{}
	ctrlGoal := &control.Goal{}
	learnGoal := &learning.Goal{M: 32}
	treasGoal := &treasure.Goal{}
	delGoal := &delegation.Goal{}
	// A feasible, forgiving generated machine: press 1 to move to state
	// 1 silently, press 0 there to emit the target.
	fsmSp := fst.Space{NumStates: 2, NumIn: 2, NumOut: 2}
	fsmIdx, err := fsmSp.Index(&fst.Machine{
		NumStates: 2, NumIn: 2, NumOut: 2,
		Next: []int{0, 1, 1, 0},
		Out:  []int{0, 0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	fsmGoal, err := fsm.New(fsmSp, fsmIdx)
	if err != nil {
		t.Fatal(err)
	}
	return []goalSetup{
		{
			name:   "treasure",
			g:      treasGoal,
			user:   func() comm.Strategy { return &treasure.Candidate{Guess: 2} },
			server: func() comm.Strategy { return &treasure.Server{Secret: 2} },
			world:  func() goal.World { return treasGoal.NewWorld(goal.Env{}) },
			rounds: 1000,
		},
		{
			name:   "printing",
			g:      printGoal,
			user:   func() comm.Strategy { return &printing.Candidate{D: printFam.Dialect(1)} },
			server: func() comm.Strategy { return server.Dialected(&printing.Server{}, printFam.Dialect(1)) },
			world:  func() goal.World { return printGoal.NewWorld(goal.Env{Choice: 1}) },
			rounds: 1000,
		},
		{
			name:   "transfer",
			g:      transGoal,
			user:   func() comm.Strategy { return &transfer.Candidate{D: transFam.Dialect(1)} },
			server: func() comm.Strategy { return server.Dialected(&transfer.Server{}, transFam.Dialect(1)) },
			world:  func() goal.World { return transGoal.NewWorld(goal.Env{}) },
			rounds: 1000,
		},
		{
			name:   "control",
			g:      ctrlGoal,
			user:   func() comm.Strategy { return &control.Candidate{D: unitsFam.Dialect(1)} },
			server: func() comm.Strategy { return server.Dialected(&control.Server{}, unitsFam.Dialect(1)) },
			world:  func() goal.World { return ctrlGoal.NewWorld(goal.Env{Choice: 3}) },
			rounds: 1000,
		},
		{
			name:   "learning",
			g:      learnGoal,
			user:   func() comm.Strategy { return &learning.ThresholdUser{Concept: 7} },
			server: func() comm.Strategy { return server.Obstinate() },
			world:  func() goal.World { return learnGoal.NewWorld(goal.Env{Choice: 7}) },
			rounds: 1000,
		},
		{
			name:   "fsm",
			g:      fsmGoal,
			user:   func() comm.Strategy { return &fsm.Candidate{D: fsmFam.Dialect(1), G: fsmGoal} },
			server: func() comm.Strategy { return server.Dialected(&fsm.Server{G: fsmGoal}, fsmFam.Dialect(1)) },
			world:  func() goal.World { return fsmGoal.NewWorld(goal.Env{}) },
			rounds: 1000,
		},
		{
			// Finite goal: g stays nil (no compact referee). A
			// mismatched dialect keeps the loop running the whole
			// horizon — the steady state is the retrying conversation.
			name:   "delegation",
			user:   func() comm.Strategy { return &delegation.Candidate{D: delFam.Dialect(1)} },
			server: func() comm.Strategy { return server.Dialected(&delegation.Server{}, delFam.Dialect(2)) },
			world:  func() goal.World { return delGoal.NewWorld(goal.Env{Choice: 1}) },
			rounds: 1000,
		},
	}
}

// a1TraySetup is ablation A1's non-forgiving printing goal: a universal
// user probing a touchy printer whose finite tray runs out first, so the
// referee keeps rejecting until the horizon.
func a1TraySetup(t testing.TB) goalSetup {
	t.Helper()
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 8)
	if err != nil {
		t.Fatal(err)
	}
	g := &printing.Goal{Docs: []string{"target"}, Paper: 16}
	return goalSetup{
		name: "printing-tray",
		g:    g,
		user: func() comm.Strategy {
			u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
			if err != nil {
				t.Fatal(err)
			}
			return u
		},
		server: func() comm.Strategy { return server.Dialected(&printing.TouchyServer{}, fam.Dialect(6)) },
		world:  func() goal.World { return g.NewWorld(goal.Env{}) },
		rounds: 400,
	}
}

// TestFastPathParity pins the online referee against the recorded one on
// real executions of every stock goal and of A1's finite-tray printing
// goal, over random seeds and horizons (some shorter than the window):
//
//   - WorldJudge: AcceptableWorld equals Acceptable on the history ending
//     in the live world's Snapshot, every round.
//   - Tracker: a RecordOff run judged by goal.Tracker — through the
//     WorldJudge fast path and through the Snapshot fallback — reaches,
//     for windows 5, 10 and 20, the verdicts that goal.CompactAchieved and
//     goal.LastUnacceptable reach on a RecordFull run of the same trial.
//   - Recording: the state handed to OnRound is the world's Snapshot.
func TestFastPathParity(t *testing.T) {
	for _, su := range append(stockSetups(t), a1TraySetup(t)) {
		t.Run(su.name, func(t *testing.T) {
			judge, hasJudge := su.g.(goal.WorldJudge)
			r := xrand.New(7)
			for k := 0; k < 12; k++ {
				seed, horizon := r.Uint64(), 1+r.Intn(30)
				if k%2 == 1 {
					horizon = 1 + r.Intn(su.rounds)
				}
				last := comm.History{States: make([]comm.WorldState, 1)}
				full, err := system.Run(su.user(), su.server(), su.world(), system.Config{
					MaxRounds: horizon,
					Seed:      seed,
					OnRound: func(round int, rv comm.RoundView, state comm.WorldState) {
						last.States[0], last.Dropped = state, round
					},
					OnRoundLive: func(round int, rv comm.RoundView, w goal.World) {
						if direct := w.Snapshot(); direct != last.States[0] {
							t.Fatalf("seed %d round %d: OnRound state %q != Snapshot %q", seed, round, last.States[0], direct)
						}
						if hasJudge && judge.AcceptableWorld(w) != su.g.Acceptable(last) {
							t.Fatalf("seed %d round %d: AcceptableWorld disagrees with Acceptable on %q", seed, round, last.States[0])
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if su.g == nil {
					continue // finite goal: no compact referee to track
				}
				// The derived goal has the same referee but no WorldJudge,
				// so its tracker takes the Snapshot fallback.
				for _, g := range []goal.CompactGoal{su.g, goal.WithReferee(su.g, su.name, su.g.Acceptable)} {
					tr := goal.NewTracker(g)
					res, err := system.Run(su.user(), su.server(), su.world(), system.Config{
						MaxRounds: horizon, Seed: seed, Record: system.RecordOff, OnRoundLive: tr.Observe,
					})
					if err != nil {
						t.Fatal(err)
					}
					if tr.Rounds() != full.Rounds || res.Rounds != full.Rounds {
						t.Fatalf("seed %d horizon %d: tracker saw %d rounds, recorded run %d", seed, horizon, tr.Rounds(), full.Rounds)
					}
					if got, want := tr.LastUnacceptable(), goal.LastUnacceptable(su.g, full.History); got != want {
						t.Fatalf("seed %d horizon %d: tracker last rejected prefix %d, recorded %d", seed, horizon, got, want)
					}
					for _, window := range []int{5, 10, 20} {
						if got, want := tr.Achieved(window), goal.CompactAchieved(su.g, full.History, window); got != want {
							t.Fatalf("seed %d horizon %d window %d: tracker achieved %v, recorded %v", seed, horizon, window, got, want)
						}
					}
					system.ReleaseResult(res)
				}
				system.ReleaseResult(full)
			}
		})
	}
}

// allocBudgets pins the steady-state allocation cost of a full
// unrecorded execution (1000 rounds) per stock goal. The budgets are
// whole-run counts, not per-round: every stock goal now
// runs its warm loop allocation-free, so the measured cost is the
// engine floor — the three per-party RNG splits of Reset (3.0 measured)
// — plus, for goals whose message streams never repeat, one arena block
// per party per run (learning and printing measure 5.0: the id-bearing
// query/answer arenas and the printed-log bookkeeping amortize to two
// extra). Budgets carry ~1.3x slack over those measurements: tight
// enough that a single Sprintf, map insert or string build per round
// (+1000/run) — or even per state transition (+tens/run) — fails
// loudly, loose enough for pool/GC timing jitter.
//
// Arena-backed learning state (ISSUE 6) is what moved learning from its
// previous 1004-alloc pin (one query string + one answer string per
// round, individually allocated) to the engine floor: unbounded-id
// messages are carved from per-execution msgbuf.Arena blocks, and the
// answered/pending maps became index-keyed rings.
var allocBudgets = map[string]float64{
	"treasure":   4,
	"printing":   7,
	"transfer":   4,
	"control":    4,
	"learning":   7,
	"delegation": 4,
	// Generated fsm goals precompute every message at construction, so
	// their warm loop sits at the engine floor like the leanest stock
	// goals.
	"fsm": 4,
}

// TestSteadyStateAllocBudgets is the alloc-gated benchmark in test form:
// testing.AllocsPerRun over full executions, failing go test when a goal
// regresses past its budget instead of silently eroding throughput.
func TestSteadyStateAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	for _, su := range stockSetups(t) {
		budget, ok := allocBudgets[su.name]
		if !ok {
			t.Fatalf("no allocation budget declared for %q", su.name)
		}
		t.Run(su.name+"/off", func(t *testing.T) {
			// Parties are constructed once and Reset per run by the
			// engine — the steady-state regime of a warm batch worker.
			user, srv, world := su.user(), su.server(), su.world()
			cfg := system.Config{MaxRounds: su.rounds, Seed: 1, Record: system.RecordOff}
			run := func() {
				res, err := system.Run(user, srv, world, cfg)
				if err != nil {
					t.Fatal(err)
				}
				system.ReleaseResult(res)
			}
			run() // warm caches and pools outside the measurement
			allocs := testing.AllocsPerRun(5, run)
			t.Logf("%s/off: %.1f allocs per %d-round execution", su.name, allocs, su.rounds)
			if allocs > budget {
				t.Errorf("%s/off: %.1f allocs per execution exceeds the budget of %.0f — a per-round allocation crept into the hot path",
					su.name, allocs, budget)
			}
		})
	}
}

// TestEngineRoundAllocCeiling pins the ISSUE 5 acceptance number
// directly: the EngineRound micro-benchmark's steady-state execution
// (1000 silent rounds, RecordOff, result released) must stay under 100
// allocations — it was ~504 before the hot-path work.
func TestEngineRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	usr := &treasure.Candidate{Guess: 0}
	srv := server.Obstinate()
	w := &treasure.World{}
	cfg := system.Config{MaxRounds: 1000, Seed: 1, Record: system.RecordOff}
	run := func() {
		res, err := system.Run(usr, srv, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		system.ReleaseResult(res)
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("engine round loop: %.1f allocs per 1000-round execution", allocs)
	if allocs >= 100 {
		t.Errorf("engine round loop allocates %.1f times per 1000-round execution, acceptance ceiling is <100", allocs)
	}
}

// TestUniversalUserSteadyAllocs pins the full sweep-shaped stack — a
// universal user (enumeration + sensing) over a dialected server — in
// its converged steady state: once the matching candidate is installed,
// switching stops and the loop must stay within budget.
func TestUniversalUserSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	g := &printing.Goal{}
	mk := func() comm.Strategy {
		u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	user := mk()
	srv := server.Dialected(&printing.Server{}, fam.Dialect(2))
	world := g.NewWorld(goal.Env{})
	cfg := system.Config{MaxRounds: 1000, Seed: 1, Record: system.RecordOff}
	run := func() {
		res, err := system.Run(user, srv, world, cfg)
		if err != nil {
			t.Fatal(err)
		}
		system.ReleaseResult(res)
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("universal printing user: %.1f allocs per 1000-round execution", allocs)
	// The candidate cache (universal.CompactUser) re-Resets cached
	// strategies on switches instead of constructing fresh ones, so a
	// warm re-run — convergence included — sits at the engine floor
	// (5.0 measured). The budget carries slack for pool/GC jitter but
	// fails on any per-switch construction (+dozens) or per-round
	// allocation (+1000) creeping back.
	if allocs > 12 {
		t.Errorf("universal user execution allocates %.1f times, budget 12", allocs)
	}
}

// TestMetricsInstrumentationAllocFree pins the ISSUE 7 acceptance
// number: the engine counters wired into RunBatch (trials, rounds,
// batch claims) must add zero allocations per round. It proves the
// instrumentation is actually on the measured path — the rounds counter
// advances by exactly MaxRounds per execution — while the per-execution
// allocation count stays at the same fixed floor the uninstrumented
// engine had, so the metric cost per round is 0 allocs.
func TestMetricsInstrumentationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	rounds := obs.Default().Counter("goalsweep_engine_rounds_total", "Total engine rounds executed across all trials.")
	trials := obs.Default().Counter("goalsweep_engine_trials_finished_total", "Trials completed (with or without error).")
	mk := func() []system.Trial {
		return []system.Trial{{
			User:   func() (comm.Strategy, error) { return &treasure.Candidate{Guess: 0}, nil },
			Server: func() comm.Strategy { return server.Obstinate() },
			World:  func() goal.World { return &treasure.World{} },
			Config: system.Config{MaxRounds: 1000, Seed: 1, Record: system.RecordOff},
		}}
	}
	run := func() {
		res, err := system.RunBatch(mk(), system.BatchConfig{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			system.ReleaseResult(r)
		}
	}
	run() // warm pools; also proves the counters are live below
	rounds0, trials0 := rounds.Value(), trials.Value()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, run)
	t.Logf("instrumented batch: %.1f allocs per 1000-round execution", allocs)
	// AllocsPerRun executes run() runs+1 times (one warm-up inside).
	if dr := rounds.Value() - rounds0; dr != (runs+1)*1000 {
		t.Fatalf("rounds counter advanced by %d, want %d — instrumentation fell off the measured path", dr, (runs+1)*1000)
	}
	if dt := trials.Value() - trials0; dt != runs+1 {
		t.Fatalf("trials counter advanced by %d, want %d", dt, runs+1)
	}
	// Same ceiling as the uninstrumented engine round loop: the batch
	// scaffolding (trial slice, result slot, scratch checkout) is fixed
	// per execution; any per-round metric allocation would add +1000.
	if allocs >= 100 {
		t.Errorf("instrumented batch allocates %.1f times per 1000-round execution, ceiling is <100 — metrics must be alloc-free on the hot path", allocs)
	}
}

// sweepAllocBudgets pins whole builtin sweeps — scenario binding, the
// universal user, server and adversary stacks, the live judge and the
// per-scenario fold together — in allocations per executed round at
// -parallel 1. Measured: default 0.156, adversarial 0.206 (71,832 and
// 16,790 allocations over 460,800 and 81,600 rounds). Budgets carry
// ~1.3x slack; one allocation per round anywhere in the stack adds 1.0.
var sweepAllocBudgets = map[string]float64{
	"default":     0.20,
	"adversarial": 0.27,
}

// TestSweepAllocsPerRound gates allocation growth across whole sweeps,
// where the per-goal pins above see only one party stack at a time.
func TestSweepAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	for name, budget := range sweepAllocBudgets {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.BuiltinSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := scenario.NewMatrix(spec)
			if err != nil {
				t.Fatal(err)
			}
			var rounds int64
			run := func() {
				sum, err := m.Sweep(nil, scenario.SweepConfig{Parallel: 1})
				if err != nil {
					t.Fatal(err)
				}
				rounds = sum.TotalRounds
			}
			run() // warm caches and pools outside the measurement
			perRound := testing.AllocsPerRun(3, run) / float64(rounds)
			t.Logf("%s sweep: %.4f allocs per round over %d rounds", name, perRound, rounds)
			if perRound > budget {
				t.Errorf("%s sweep allocates %.4f times per round, budget %.2f — an allocation crept into the sweep hot path",
					name, perRound, budget)
			}
		})
	}
}

// BenchmarkSweepStack reports the sweep-shaped hot path end to end for
// profiling convenience: go test -bench SweepStack -benchmem.
func BenchmarkSweepStack(b *testing.B) {
	for _, su := range stockSetups(b) {
		if su.g == nil {
			continue
		}
		b.Run(su.name, func(b *testing.B) {
			user, srv, world := su.user(), su.server(), su.world()
			if _, ok := su.g.(goal.WorldJudge); !ok {
				b.Fatalf("%s: stock compact goal without WorldJudge", su.name)
			}
			var tr goal.Tracker
			cfg := system.Config{
				MaxRounds:   su.rounds,
				Seed:        1,
				Record:      system.RecordOff,
				OnRoundLive: tr.Observe,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr = goal.NewTracker(su.g)
				res, err := system.Run(user, srv, world, cfg)
				if err != nil {
					b.Fatal(err)
				}
				system.ReleaseResult(res)
			}
		})
	}
}
