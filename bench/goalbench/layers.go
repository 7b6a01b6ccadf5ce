package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/system"
	"repro/internal/xrand"
)

// The engine's own counters and the sweep's RunEach histogram, read
// around in-process runs: counts recorded where the work happens.
var (
	engineRounds = obs.Default().Counter("goalsweep_engine_rounds_total", "")
	engineTrials = obs.Default().Counter("goalsweep_engine_trials_started_total", "")
	chunkSeconds = obs.Default().Histogram("goalsweep_sweep_chunk_seconds", "", nil)
)

// Party calls are timed on the rounds with round%64 == sampled. Timing
// every round would cost about as much as a round, and a fixed rule
// makes sample counts repeat exactly. Round 0 is avoided: a trial's first
// Step pays one-time set-up that would dominate its sample.
const (
	sampleMask = 63
	sampled    = 63
)

// timerCost is the median duration of an empty timed section; sampled
// means subtract it, so a 100ns step is not inflated by the clock reads
// around it. A call shorter than the clock's jitter reads 0.
var timerCost = func() float64 {
	xs := make([]float64, 1001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}()

// acc accumulates sampled durations.
type acc struct{ sum, n atomic.Int64 }

func (a *acc) add(d time.Duration) {
	a.sum.Add(int64(d))
	a.n.Add(1)
}

func (a *acc) meanNs() float64 {
	if n := a.n.Load(); n > 0 {
		return max(0, float64(a.sum.Load())/float64(n)-timerCost)
	}
	return 0
}

// timedStrategy times a party's Step on sampled rounds.
type timedStrategy struct {
	inner comm.Strategy
	acc   *acc
	n     int
}

func (s *timedStrategy) Reset(r *xrand.Rand) {
	s.n = 0
	s.inner.Reset(r)
}

func (s *timedStrategy) Step(in comm.Inbox) (comm.Outbox, error) {
	n := s.n
	s.n++
	if n&sampleMask != sampled {
		return s.inner.Step(in)
	}
	t := time.Now()
	out, err := s.inner.Step(in)
	s.acc.add(time.Since(t))
	return out, err
}

// timedHalter forwards comm.Halter, so a halting user still halts the
// execution; non-halting parties are wrapped without it, so the engine
// sees exactly the interfaces it would see unwrapped.
type timedHalter struct {
	timedStrategy
	h comm.Halter
}

func (s *timedHalter) Halted() bool { return s.h.Halted() }

func timed(inner comm.Strategy, a *acc) comm.Strategy {
	if h, ok := inner.(comm.Halter); ok {
		return &timedHalter{timedStrategy{inner: inner, acc: a}, h}
	}
	return &timedStrategy{inner: inner, acc: a}
}

// replayStats is what a traced replay measured.
type replayStats struct {
	wall, runEach time.Duration
	trials        int
	rounds        int64
	errors        int
	successes     map[string]int
	setupNs       atomic.Int64
	at, bind      acc
	user, server  acc
	judge         acc
}

// replaySlot tracks one trial the way the sweep does: rounds executed and
// the largest prefix length the referee rejected.
type replaySlot struct{ rounds, lastBad int }

type replayJob struct {
	id    string
	slots []*replaySlot
	base  int
}

// replay re-executes a sweep's selection from the benchmark's own loop —
// Matrix.At, Registry.Bind, then system.RunEach per 256-trial chunk, with
// seeds from system.DeriveSeed(base^sc.Hash(), t) exactly as the sweep
// derives them — with the party factories wrapped in timers. It runs the
// engine single-threaded, so a chunk's child spans tile its interval and
// per-round times add up.
func replay(tr *tracer, m *scenario.Matrix, indices []int64, cfg scenario.SweepConfig) (*replayStats, error) {
	const chunkTrials = 256
	reg := scenario.Builtin()
	seeds, window, base := cfg.Effective(m.Spec())
	rs := &replayStats{successes: make(map[string]int, len(indices))}
	root := tr.start(1, 0, "replay")
	begin := time.Now()

	var (
		jobs       []replayJob
		trials     []system.Trial
		chunk      open
		chunkOpen  bool
		buildStart int64
	)
	flush := func() {
		tr.record(1, chunk.id, "scenario.build", buildStart, tr.now())
		sp := tr.start(1, chunk.id, "system.RunEach")
		t := time.Now()
		results, errs := system.RunEach(trials, system.BatchConfig{Parallelism: 1})
		rs.runEach += time.Since(t)
		sp.end()
		for _, res := range results {
			system.ReleaseResult(res)
		}
		for _, j := range jobs {
			succ := 0
			for k, sl := range j.slots {
				rs.rounds += int64(sl.rounds)
				if errs[j.base+k] != nil {
					rs.errors++
					continue
				}
				if sl.rounds >= window && sl.lastBad <= sl.rounds-window {
					succ++
				}
			}
			rs.successes[j.id] = succ
		}
		rs.trials += len(trials)
		chunk.end()
		chunkOpen = false
		jobs, trials = jobs[:0], trials[:0]
	}
	for _, i := range indices {
		if !chunkOpen {
			chunk = tr.start(1, root.id, "replay.chunk")
			buildStart, chunkOpen = tr.now(), true
		}
		t0 := time.Now()
		sc := m.At(i)
		t1 := time.Now()
		bind, err := reg.Bind(sc)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		rs.at.add(t1.Sub(t0))
		rs.bind.add(t2.Sub(t1))
		judge, _ := bind.Goal.(goal.WorldJudge)
		job := replayJob{id: sc.ID(), base: len(trials)}
		for t := 0; t < seeds; t++ {
			sl := &replaySlot{}
			job.slots = append(job.slots, sl)
			c := system.Config{MaxRounds: bind.MaxRounds, Seed: system.DeriveSeed(base^sc.Hash(), t), Record: system.RecordOff}
			if judge != nil {
				c.OnRoundLive = rs.liveJudge(sl, judge)
			} else {
				c.OnRound = rs.snapshotJudge(sl, bind.Goal)
			}
			trials = append(trials, rs.trial(bind, c))
		}
		jobs = append(jobs, job)
		if len(trials) >= chunkTrials {
			flush()
		}
	}
	if chunkOpen {
		flush()
	}
	root.end()
	rs.wall = time.Since(begin)
	return rs, nil
}

// trial wraps a binding's factories: their cost is the trial's set-up,
// and the user and server they build are timed on sampled rounds. Worlds
// stay unwrapped so the engine's snapshot fast paths are untouched.
func (rs *replayStats) trial(bind *scenario.Binding, c system.Config) system.Trial {
	return system.Trial{
		User: func() (comm.Strategy, error) {
			t := time.Now()
			u, err := bind.User()
			rs.setupNs.Add(int64(time.Since(t)))
			if err != nil {
				return nil, err
			}
			return timed(u, &rs.user), nil
		},
		Server: func() comm.Strategy {
			t := time.Now()
			s := bind.Server()
			rs.setupNs.Add(int64(time.Since(t)))
			return timed(s, &rs.server)
		},
		World: func() goal.World {
			t := time.Now()
			w := bind.World()
			rs.setupNs.Add(int64(time.Since(t)))
			return w
		},
		Config: c,
	}
}

func (rs *replayStats) liveJudge(sl *replaySlot, j goal.WorldJudge) func(int, comm.RoundView, goal.World) {
	return func(round int, _ comm.RoundView, w goal.World) {
		sl.rounds = round + 1
		var ok bool
		if round&sampleMask == sampled {
			t := time.Now()
			ok = j.AcceptableWorld(w)
			rs.judge.add(time.Since(t))
		} else {
			ok = j.AcceptableWorld(w)
		}
		if !ok {
			sl.lastBad = round + 1
		}
	}
}

// snapshotJudge is the fallback for goals without a live-world judge: the
// referee sees a one-state history, as in the sweep.
func (rs *replayStats) snapshotJudge(sl *replaySlot, g goal.CompactGoal) func(int, comm.RoundView, comm.WorldState) {
	h := comm.History{States: make([]comm.WorldState, 1)}
	return func(round int, _ comm.RoundView, state comm.WorldState) {
		sl.rounds = round + 1
		h.States[0], h.Dropped = state, round
		var ok bool
		if round&sampleMask == sampled {
			t := time.Now()
			ok = g.Acceptable(h)
			rs.judge.add(time.Since(t))
		} else {
			ok = g.Acceptable(h)
		}
		if !ok {
			sl.lastBad = round + 1
		}
	}
}

// mismatches counts scenarios whose success count differs between a
// report and a re-execution, plus one if the round totals differ.
func mismatches(report *reportCounts, successes map[string]int, rounds int64) int {
	n := 0
	for id, s := range report.successes {
		if got, ok := successes[id]; !ok || got != s {
			n++
		}
	}
	for id := range successes {
		if _, ok := report.successes[id]; !ok {
			n++
		}
	}
	if rounds >= 0 && rounds != report.rounds {
		n++
	}
	return n
}

// sweepLayers measures a sweep selection in process: an untraced
// Matrix.Sweep at -parallel P (allocations, RunEach share, the wall the
// CLI adds around it), the same sweep single-threaded, and the traced
// replay, whose wall against the single-threaded sweep is the tracing
// overhead.
func (b *bench) sweepLayers(tr *tracer, m *scenario.Matrix, indices []int64, cfg scenario.SweepConfig,
	report *reportCounts, e2eWall float64) (map[string]float64, error) {
	L := make(map[string]float64)
	cfgP := cfg
	cfgP.Parallel = b.procs
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, chunks0 := ms.Mallocs, chunkSeconds.Snapshot().Sum
	sp := tr.start(2, 0, "scenario.Sweep")
	t := time.Now()
	sum, err := m.Sweep(indices, cfgP)
	wallP := time.Since(t)
	sp.end()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	if sum.TotalRounds > 0 {
		L["system.allocs_per_round"] = float64(ms.Mallocs-mallocs0) / float64(sum.TotalRounds)
	}
	L["scenario.sweep_self_share"] = 1 - (chunkSeconds.Snapshot().Sum-chunks0)/wallP.Seconds()
	L["goalsweep.outside_sweep_s"] = e2eWall - wallP.Seconds()
	L["goalsweep.report_mb"] = float64(report.bytes) / (1 << 20)

	cfg1 := cfg
	cfg1.Parallel = 1
	sp = tr.start(3, 0, "scenario.Sweep.serial")
	t = time.Now()
	if _, err := m.Sweep(indices, cfg1); err != nil {
		return nil, err
	}
	wall1 := time.Since(t)
	sp.end()

	rs, err := replay(tr, m, indices, cfg)
	if err != nil {
		return nil, err
	}
	L["trace.overhead_share"] = rs.wall.Seconds()/wall1.Seconds() - 1
	L["trace.replay_mismatches"] = float64(mismatches(report, rs.successes, rs.rounds) + rs.errors)
	L["system.trials"] = float64(rs.trials)
	L["system.rounds"] = float64(rs.rounds)
	if rs.rounds > 0 {
		round := float64(rs.runEach.Nanoseconds()) / float64(rs.rounds)
		L["system.round_ns"] = round
		L["system.self_ns_per_round"] = round - rs.user.meanNs() - rs.server.meanNs() - rs.judge.meanNs()
	}
	if rs.trials > 0 {
		L["system.trial_setup_ns"] = float64(rs.setupNs.Load()) / float64(rs.trials)
	}
	L["universal.user_step_ns"] = rs.user.meanNs()
	L["server.step_ns"] = rs.server.meanNs()
	L["goal.judge_ns"] = rs.judge.meanNs()
	L["universal.switches_per_trial"] = report.switches
	L["scenario.at_ns"] = rs.at.meanNs()
	L["scenario.bind_ns"] = rs.bind.meanNs()
	return L, nil
}

// sampled builds the family matrix and times the sample selection the
// CLI makes for -sample n -sampleseed seed.
func (b *bench) sampled(tr *tracer, n int) (*scenario.Matrix, []int64, float64, error) {
	m, err := scenario.NewMatrix(familySpec())
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tr.start(4, 0, "scenario.Sample")
	t := time.Now()
	indices := m.Sample(n, b.seed)
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	sp.end()
	return m, indices, ms, nil
}

func traceStockRounds(_ context.Context, b *bench, tr *tracer, wr *workloadRun) (map[string]float64, error) {
	m, err := scenario.NewMatrix(defaultSpec())
	if err != nil {
		return nil, err
	}
	indices := make([]int64, m.Size())
	for i := range indices {
		indices[i] = int64(i)
	}
	cfg := scenario.SweepConfig{Seeds: b.sz.StockSeeds, BaseSeed: b.seed}
	return b.sweepLayers(tr, m, indices, cfg, wr.counts, wr.wallMedian())
}

func traceFamilySample(_ context.Context, b *bench, tr *tracer, wr *workloadRun) (map[string]float64, error) {
	m, indices, sampleMs, err := b.sampled(tr, b.sz.FamilySample)
	if err != nil {
		return nil, err
	}
	L, err := b.sweepLayers(tr, m, indices, scenario.SweepConfig{BaseSeed: b.seed}, wr.counts, wr.wallMedian())
	if err != nil {
		return nil, err
	}
	L["scenario.sample_ms"] = sampleMs
	return L, nil
}

// setPercentiles stores the p50 and p90 of xs under prefix_p50/_p90,
// leaving out a percentile without ten samples beyond it.
func setPercentiles(L map[string]float64, prefix string, xs []float64) {
	for _, p := range []float64{50, 90} {
		if v, ok := percentile(xs, p); ok {
			L[fmt.Sprintf("%s_p%.0f", prefix, p)] = v
		}
	}
}
