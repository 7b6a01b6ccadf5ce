// Allocation-discipline and fast-path-parity pins for the engine hot
// path: the steady-state round loop of every stock goal must stay within
// its allocation budget under RecordOff, and the online referee — the
// engine judging the live world through system.Config.Referee — must
// reach the verdicts of the recorded-history referee it replaces.
package repro

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
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
	fsmSpace, err := fsm.ParseSpace("2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	fsmGoal, err := fsmSpace.Goal(fsmIdx)
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
//   - Live judge: AcceptableWorld on the live world equals Acceptable on
//     the history recorded so far, every round.
//   - Referee: a RecordOff run judged by system.Config.Referee reaches,
//     for windows 5, 10 and 20, the verdicts that goal.CompactAchieved and
//     goal.LastUnacceptable reach on a RecordFull run of the same trial.
//   - Messages: Result.Messages is the count of non-empty messages over
//     the RecordFull run's View, and the RecordOff run counts the same.
//   - Recording: the state handed to OnRound is the world's Snapshot.
func TestFastPathParity(t *testing.T) {
	for _, su := range append(stockSetups(t), a1TraySetup(t)) {
		t.Run(su.name, func(t *testing.T) {
			r := xrand.New(7)
			for k := 0; k < 12; k++ {
				seed, horizon := r.Uint64(), 1+r.Intn(30)
				if k%2 == 1 {
					horizon = 1 + r.Intn(su.rounds)
				}
				var seen comm.History
				full, err := system.Run(su.user(), su.server(), su.world(), system.Config{
					MaxRounds: horizon,
					Seed:      seed,
					OnRound: func(round int, rv comm.RoundView, state comm.WorldState) {
						seen.States = append(seen.States, state)
					},
					OnRoundLive: func(round int, rv comm.RoundView, w goal.World) {
						if direct := w.Snapshot(); direct != seen.Last() {
							t.Fatalf("seed %d round %d: OnRound state %q != Snapshot %q", seed, round, seen.Last(), direct)
						}
						if su.g != nil && su.g.AcceptableWorld(w) != su.g.Acceptable(seen) {
							t.Fatalf("seed %d round %d: AcceptableWorld disagrees with Acceptable on %q", seed, round, seen.Last())
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				msgs := 0
				for _, rv := range full.View.Rounds {
					for _, m := range []comm.Message{rv.In.FromServer, rv.In.FromWorld, rv.Out.ToServer, rv.Out.ToWorld} {
						if !m.Empty() {
							msgs++
						}
					}
				}
				if full.Messages != msgs {
					t.Fatalf("seed %d horizon %d: Result.Messages %d, the recorded view holds %d", seed, horizon, full.Messages, msgs)
				}
				if su.g == nil {
					continue // finite goal: no compact referee to judge by
				}
				res, err := system.Run(su.user(), su.server(), su.world(), system.Config{
					MaxRounds: horizon, Seed: seed, Record: system.RecordOff, Referee: su.g,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != full.Rounds || res.Messages != msgs {
					t.Fatalf("seed %d horizon %d: judged run saw %d rounds and %d messages, recorded run %d and %d",
						seed, horizon, res.Rounds, res.Messages, full.Rounds, msgs)
				}
				if got, want := res.LastUnacceptable, goal.LastUnacceptable(su.g, full.History); got != want {
					t.Fatalf("seed %d horizon %d: engine last rejected prefix %d, recorded %d", seed, horizon, got, want)
				}
				for _, window := range []int{5, 10, 20} {
					if got, want := res.Achieved(window), goal.CompactAchieved(su.g, full.History, window); got != want {
						t.Fatalf("seed %d horizon %d window %d: engine achieved %v, recorded %v", seed, horizon, window, got, want)
					}
				}
				system.ReleaseResult(res)
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
// — plus two for learning and printing (both measure 5.0). Learning's
// are its id-bearing query/answer arenas, one block per party per run;
// printing's are the world's announcement string, built once for the
// empty printout and once more when the first sheet prints (a memory
// profile puts both in printing.(*World).Step). Budgets carry ~1.3x
// slack over those measurements: tight
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

// t1AllocBudgets pins Theorem 1's table (T1) at its largest class: one
// 12,800-round execution (horizon 50N, N = 256) with parties built fresh
// for the run, as T1 and sweep trials build them. Measured: 25 per
// oracle run and 1,830 per universal run. A memory profile puts the
// latter at ~5 per candidate the universal user tries (its construction,
// RNG split, "PRINT <task>" and two-allocation word encoding: ~1,280 over
// 256 candidates) plus the printer decoding each of those 256 commands
// once (~520). Silence reaching a dialect past msgbuf.DefaultTableCap
// distinct commands, or a printout that logs every sheet, adds
// thousands. Budgets carry ~1.3x slack.
var t1AllocBudgets = map[string]float64{
	"oracle":    32,
	"universal": 2400,
}

// TestT1ShapedAllocs gates allocation growth in T1-shaped runs: long
// printing executions against a 256-dialect class, where per-round and
// per-sheet costs dominate and the 1000-round pins above barely see them.
func TestT1ShapedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	const n = 256
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	g := &printing.Goal{}
	measure := func(name string, srvIdx int, user func() comm.Strategy) {
		run := func() {
			res, err := system.Run(user(),
				server.Dialected(&printing.Server{}, fam.Dialect(srvIdx)),
				g.NewWorld(goal.Env{Choice: srvIdx % g.EnvChoices()}),
				system.Config{MaxRounds: 50 * n, Seed: 1, Record: system.RecordOff, Referee: g})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Achieved(10) {
				t.Fatalf("%s vs server %d: goal not achieved", name, srvIdx)
			}
			system.ReleaseResult(res)
		}
		run() // warm pools outside the measurement
		allocs := testing.AllocsPerRun(3, run)
		t.Logf("%s vs server %d: %.1f allocs per %d-round execution", name, srvIdx, allocs, 50*n)
		if budget := t1AllocBudgets[name]; allocs > budget {
			t.Errorf("%s vs server %d: %.1f allocs per execution exceeds the budget of %.0f", name, srvIdx, allocs, budget)
		}
	}
	for _, srvIdx := range []int{0, 200, n - 1} {
		measure("oracle", srvIdx, func() comm.Strategy { return &printing.Candidate{D: fam.Dialect(srvIdx)} })
	}
	measure("universal", n-1, func() comm.Strategy {
		u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		return u
	})
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
// universal user, server and adversary stacks, the engine's referee and
// the per-scenario fold together — in allocations per executed round at
// -parallel 1. Measured: default 0.1476, adversarial 0.1880 allocations
// per round over 460,800 and 81,600 rounds. Budgets carry ~1.3x slack;
// one allocation per round anywhere in the stack adds 1.0.
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

// familyAllocBudgets pins the per-scenario cost of sweeping the family
// spec, whose scenarios are nearly all generated fsm goals, at the
// sample of 1,000 that TestReportGoldens pins (sample seed 1):
//
//   - bind: Matrix.At plus Registry.Bind, through one registry as a sweep
//     binds. Measured 30.4: the class memo builds each dialect family and
//     fsm space once per registry, where every scenario rebuilt them before
//     (77).
//   - sweep: a whole sweep at Parallel 1, trials, fold and scenario hash
//     included. Measured 78.0, where it was 143 before the memo, before a
//     dialected server allocated its translation table only for a second
//     distinct message and before Scenario.Hash stopped building a string
//     per coordinate.
//
// Budgets carry ~1.3x slack; rebuilding one dialect family per scenario
// adds about 15.
var familyAllocBudgets = map[string]float64{
	"bind":  40,
	"sweep": 100,
}

// TestFamilyAllocsPerScenario gates allocation growth in binding and
// sweeping the scenario-heavy family spec.
func TestFamilyAllocsPerScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	spec, err := scenario.BuiltinSpec("family")
	if err != nil {
		t.Fatal(err)
	}
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	idx := m.Sample(1000, 1)
	for name, run := range map[string]func(){
		"bind": func() {
			reg := scenario.Builtin()
			for _, i := range idx {
				if _, err := reg.Bind(m.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		"sweep": func() {
			if _, err := m.Sweep(idx, scenario.SweepConfig{Parallel: 1}); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			run() // warm caches and pools outside the measurement
			perScenario := testing.AllocsPerRun(3, run) / float64(len(idx))
			t.Logf("family %s: %.1f allocs per scenario", name, perScenario)
			if budget := familyAllocBudgets[name]; perScenario > budget {
				t.Errorf("family %s allocates %.1f times per scenario, budget %.0f", name, perScenario, budget)
			}
		})
	}
}

// pingDialect codes the one message "ping" as "gnip" and back, and
// allocates nothing, so a run's allocations are the wrapper's own.
type pingDialect struct{}

func (pingDialect) ID() int                            { return 1 }
func (pingDialect) Name() string                       { return "ping" }
func (pingDialect) Encode(m comm.Message) comm.Message { return swapPing(m) }
func (pingDialect) Decode(m comm.Message) comm.Message { return swapPing(m) }

func swapPing(m comm.Message) comm.Message {
	switch m {
	case "ping":
		return "gnip"
	case "gnip":
		return "ping"
	}
	return m
}

// TestDialectedOneCommandAllocatesNoTable pins a dialected server whose
// user repeats one command, so that each direction translates one
// message: both translations stay in the single-entry memos, and no
// translation table is allocated. A fresh server then costs a 1,000-round
// run one allocation more than the bare server it wraps (the wrapper);
// the two tables it used to allocate cost at least two more.
func TestDialectedOneCommandAllocatesNoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race (the race runtime allocates)")
	}
	if testing.Short() {
		t.Skip("allocation pins are not meaningful under -short")
	}
	const rounds = 1000
	outs := make([]comm.Outbox, rounds)
	for i := range outs {
		outs[i].ToServer = "gnip"
	}
	user, world, inner := &commtest.Script{Outs: outs}, &commtest.CountingWorld{}, &commtest.Echo{}
	cfg := system.Config{MaxRounds: rounds, Seed: 1, Record: system.RecordOff}
	measure := func(name string, srv func() comm.Strategy) float64 {
		run := func() {
			res, err := system.Run(user, srv(), world, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The user's 1,000 commands and the server's replies, which
			// reach the user two rounds after each command.
			if res.Messages != 2*rounds-2 {
				t.Fatalf("%s: %d messages, want %d", name, res.Messages, 2*rounds-2)
			}
			system.ReleaseResult(res)
		}
		run()
		allocs := testing.AllocsPerRun(5, run)
		t.Logf("%s server: %.1f allocs per %d-round run", name, allocs, rounds)
		return allocs
	}
	bare := measure("bare", func() comm.Strategy { return inner })
	dialected := measure("dialected", func() comm.Strategy { return server.Dialected(inner, pingDialect{}) })
	if extra := dialected - bare; extra > 1 {
		t.Errorf("a fresh dialected server adds %.1f allocations to a run that translates one message each way, want 1 (the wrapper)", extra)
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
			cfg := system.Config{
				MaxRounds: su.rounds,
				Seed:      1,
				Record:    system.RecordOff,
				Referee:   su.g,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := system.Run(user, srv, world, cfg)
				if err != nil {
					b.Fatal(err)
				}
				system.ReleaseResult(res)
			}
		})
	}
}
