package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/harness"
	"repro/internal/system"
)

// SweepConfig controls a streaming sweep over a matrix.
type SweepConfig struct {
	// Registry resolves scenarios into parties; nil means Builtin().
	Registry *Registry

	// Parallel bounds the engine worker pool; values < 1 mean
	// GOMAXPROCS. Output is byte-identical at every setting.
	Parallel int

	// Seeds overrides the spec's per-scenario trial count when > 0.
	Seeds int

	// Window overrides the spec's convergence window when > 0.
	Window int

	// BaseSeed overrides the spec's seed-derivation root when nonzero.
	BaseSeed uint64

	// SeedFn overrides per-trial seed derivation entirely. The default,
	// TrialSeed, derives each trial's seed from the base seed and the
	// scenario's content hash, so a scenario's trials are identical no
	// matter where (or whether) the scenario appears in an enumeration or
	// sample. SeedFn is called while chunks are built, beside OnStats
	// calls, so the two must share no unsynchronized state.
	SeedFn func(sc *Scenario, trial int) uint64

	// Cache, when non-nil, is consulted before a scenario is scheduled
	// and updated after it executes: scenarios whose aggregates are
	// already stored under the sweep's (registry version, base seed,
	// seeds, window) key are emitted without running a single trial,
	// byte-identical to a fresh execution. The cache is bypassed when
	// SeedFn is set (stored aggregates are keyed by the default
	// content-derived seed derivation) and when the registry is
	// unversioned (see Registry.SetVersion — without a declared
	// identity, entries from registries binding the same axes
	// differently would be indistinguishable); scenarios with trial
	// errors are never stored, so transient failures are retried on the
	// next run.
	Cache *Cache

	// OnStats, when non-nil, receives every scenario's aggregate in
	// enumeration order as soon as its chunk completes, on the goroutine
	// that called Sweep. An error aborts the sweep. This is the streaming
	// output path: a sweep holds at most two chunks of per-trial state,
	// the one running and the one being built, and never accumulates
	// per-scenario stats itself.
	OnStats func(st *Stats) error
}

// Effective resolves the sweep parameters the config would use against
// the spec's defaults — the values cache keys and shard fingerprints are
// derived from.
func (cfg SweepConfig) Effective(spec *Spec) (seeds, window int, baseSeed uint64) {
	seeds = spec.seeds()
	if cfg.Seeds > 0 {
		seeds = cfg.Seeds
	}
	window = spec.window()
	if cfg.Window > 0 {
		window = cfg.Window
	}
	baseSeed = spec.baseSeed()
	if cfg.BaseSeed != 0 {
		baseSeed = cfg.BaseSeed
	}
	return seeds, window, baseSeed
}

// Dist summarizes a sample of rounds-to-success values.
type Dist struct {
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
}

// Stats is the online aggregate of one scenario's trials — the only
// per-scenario state a sweep materializes.
type Stats struct {
	// ID is the scenario's stable content-derived identifier.
	ID string `json:"id"`

	// Axes are the scenario's coordinates, in spec axis order.
	Axes []AxisValue `json:"axes"`

	// Trials is the number of trials executed; Errors counts those that
	// failed with an engine or construction error (excluded from every
	// other aggregate) and FirstError carries the lowest-index failing
	// trial's message.
	Trials     int    `json:"trials"`
	Errors     int    `json:"errors,omitempty"`
	FirstError string `json:"firstError,omitempty"`

	// Successes counts trials that achieved the goal: every prefix in
	// the final window rounds acceptable. SuccessRate is Successes over
	// Trials.
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"successRate"`

	// Rounds summarizes rounds-to-success (the last unacceptable prefix
	// length) over successful trials.
	Rounds Dist `json:"roundsToSuccess"`

	// MeanExecutedRounds is the mean execution length over all
	// non-error trials.
	MeanExecutedRounds float64 `json:"meanExecutedRounds"`

	// ExecutedRounds is the total number of rounds executed across all
	// trials, errored ones included — the scenario's exact contribution
	// to the sweep summary's TotalRounds, carried here so cached and
	// shard-merged summaries reproduce a fresh run's totals bit for
	// bit.
	ExecutedRounds int64 `json:"executedRounds"`

	// MsgsPerRound is the message overhead: non-silent messages
	// observed on the user's channels per executed round, totalled over
	// non-error trials.
	MsgsPerRound float64 `json:"msgsPerRound"`

	// MeanSwitches is the mean candidate-eviction count for user
	// strategies that report one (universal users), over non-error
	// trials; 0 when the user strategy has no switch counter.
	MeanSwitches float64 `json:"meanSwitches"`
}

// Axis returns the scenario coordinate the aggregate was computed for.
func (st *Stats) Axis(name string) (string, bool) {
	return findAxis(st.Axes, name)
}

// AxisInt returns the named coordinate parsed as an int; unlike the
// Scenario accessors an absent axis is an error, since a consumer reading
// an aggregate back expects the coordinate it asks for to exist.
func (st *Stats) AxisInt(name string) (int, error) {
	v, ok := st.Axis(name)
	if !ok {
		return 0, fmt.Errorf("scenario: aggregate %s has no %q axis", st.ID, name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("scenario: aggregate %s axis %q: %q is not an int", st.ID, name, v)
	}
	return n, nil
}

// AxisFloat returns the named coordinate parsed as a float64; an absent
// axis is an error.
func (st *Stats) AxisFloat(name string) (float64, error) {
	v, ok := st.Axis(name)
	if !ok {
		return 0, fmt.Errorf("scenario: aggregate %s has no %q axis", st.ID, name)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario: aggregate %s axis %q: %q is not a float", st.ID, name, v)
	}
	return f, nil
}

// Summary totals a sweep.
type Summary struct {
	Spec        string  `json:"spec"`
	Scenarios   int     `json:"scenarios"`
	Trials      int     `json:"trials"`
	Errors      int     `json:"errors"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"successRate"`
	TotalRounds int64   `json:"totalRounds"`

	// Cache and execution accounting. Deliberately excluded from
	// serialized output so warm-cache, sharded-and-merged and fresh
	// serial runs stay byte-identical; they exist for observability and
	// tests. Trials above always counts what the aggregates cover;
	// ExecutedTrials counts what this run actually ran. CacheWriteError
	// records the first failed store write: like every other cache
	// problem it degrades (the store is disabled for the rest of the
	// sweep) instead of aborting, because the report is still exact —
	// only the next run's warm-up is lost.
	CacheHits       int   `json:"-"`
	CacheMisses     int   `json:"-"`
	ExecutedTrials  int   `json:"-"`
	CacheWriteError error `json:"-"`
}

// switcher is implemented by user strategies that count candidate
// evictions (universal.CompactUser).
type switcher interface{ Switches() int }

// scenJob is one scenario's in-flight state within a chunk; a cache hit
// carries its ready-made aggregate instead of trials, holding its place
// in the emission order. users[t] is trial t's user, kept for its switch
// counter; everything else a trial contributes the engine returns in its
// Result, so nothing here is written while the trials run.
type scenJob struct {
	sc     *Scenario
	users  []comm.Strategy
	base   int    // index of the scenario's first trial within the chunk
	cached *Stats // non-nil for cache hits; no trials were scheduled
}

// fold reduces a completed scenario's results and per-trial errors into
// its aggregate. A trial that failed mid-run still counts the rounds it
// completed (system.RoundError). Distribution statistics reuse the harness
// implementations, so sweep numbers agree bit for bit with the hand-coded
// experiment tables.
func (j *scenJob) fold(results []*system.Result, errs []error, window int) *Stats {
	st := &Stats{
		ID:     j.sc.ID(),
		Axes:   j.sc.Values,
		Trials: len(j.users),
	}
	var conv []float64
	var totalRounds, totalMsgs, totalSwitches int
	counted := 0
	for t, user := range j.users {
		res := results[j.base+t]
		if err := errs[j.base+t]; err != nil {
			var re *system.RoundError
			if errors.As(err, &re) {
				st.ExecutedRounds += int64(re.Rounds)
			}
			st.Errors++
			if st.FirstError == "" {
				st.FirstError = err.Error()
			}
			continue
		}
		st.ExecutedRounds += int64(res.Rounds)
		counted++
		totalRounds += res.Rounds
		totalMsgs += res.Messages
		if u, ok := user.(switcher); ok {
			totalSwitches += u.Switches()
		}
		if res.Achieved(window) {
			st.Successes++
			conv = append(conv, float64(res.LastUnacceptable))
		}
	}
	if st.Trials > 0 {
		st.SuccessRate = float64(st.Successes) / float64(st.Trials)
	}
	st.Rounds = Dist{
		Mean:   harness.Mean(conv),
		P50:    harness.Percentile(conv, 50),
		P99:    harness.Percentile(conv, 99),
		Max:    harness.Max(conv),
		Stddev: harness.Stddev(conv),
	}
	if counted > 0 {
		st.MeanExecutedRounds = float64(totalRounds) / float64(counted)
		st.MeanSwitches = float64(totalSwitches) / float64(counted)
	}
	if totalRounds > 0 {
		st.MsgsPerRound = float64(totalMsgs) / float64(totalRounds)
	}
	return st
}

// TrialSeed is the engine seed of trial t of sc in a sweep rooted at
// base, the default SweepConfig.SeedFn. It depends only on the base seed,
// the scenario's content hash and t, so a scenario ID and a trial index
// name one execution wherever the scenario is swept.
func TrialSeed(base uint64, sc *Scenario, t int) uint64 {
	return system.DeriveSeed(base^sc.Hash(), t)
}

// chunkTrials is how many trials a sweep buffers per engine batch: enough
// to feed the worker pool, few enough to bound in-flight per-trial state.
const chunkTrials = 256

// chunk is one engine batch of a sweep: its scenarios in selection order
// and their trials.
type chunk struct {
	jobs         []*scenJob
	trials       []system.Trial
	hits, misses int // cache lookups that hit and missed
}

// Sweep streams the given scenario indices (nil means the whole matrix, in
// enumeration order) through the batch execution engine. Scenarios are
// buffered into chunks of trials, executed across the worker pool, folded
// into per-scenario aggregates and emitted via cfg.OnStats — per-trial
// results are released as soon as each chunk folds, so sweep memory is
// bounded by the chunk size regardless of matrix size.
//
// While one chunk's trials run, a second goroutine builds the next chunk:
// it decodes, looks up in the cache and binds that chunk's scenarios and
// sets up their trials, and the sweep joins it before folding the running
// chunk. So up to two chunks of per-trial state are in flight, the worker
// pool never waits for binding, and cfg.Parallel still bounds the trial
// workers alone. Chunks, emission order, cache writes and errors are those
// of building and running each chunk in turn: a chunk that fails to build
// is never run, and the error is returned after the chunk before it is
// emitted. The next chunk's cache lookups may precede the running chunk's
// stores, which shows only in the summary's cache accounting, and only
// for a selection that repeats a scenario or a store that fails.
//
// Every aggregate is deterministic given the spec and seeds:
// parallelism only changes wall-clock time, never a byte of output.
func (m *Matrix) Sweep(indices []int64, cfg SweepConfig) (*Summary, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = Builtin()
	}
	seeds, window, base := cfg.Effective(m.spec)
	seedFn := cfg.SeedFn
	cache := cfg.Cache
	if seedFn == nil {
		seedFn = func(sc *Scenario, trial int) uint64 {
			return TrialSeed(base, sc, trial)
		}
	} else {
		// Cached aggregates are keyed by the default seed derivation; a
		// custom SeedFn runs different trials, so the cache must not
		// serve (or be fed) its results.
		cache = nil
	}
	if reg.Version() == "" {
		// An unversioned registry has no stable binding identity to key
		// entries by; serving a shared store's aggregates here could
		// return results computed under different semantics.
		cache = nil
	}
	key := func(id string) Key {
		return Key{ScenarioID: id, Registry: reg.Version(), BaseSeed: base, Seeds: seeds, Window: window}
	}
	n := m.size
	if indices != nil {
		n = int64(len(indices))
	}
	var next int64 // selection position of the next scenario to build

	// build fills c with the next chunk of the selection, consulting the
	// given cache: it ends after chunkTrials trials, after chunkTrials
	// cache hits, or at the end of the selection.
	build := func(c *chunk, cache *Cache) error {
		c.jobs, c.trials, c.hits, c.misses = c.jobs[:0], c.trials[:0], 0, 0
		for next < n {
			i := next
			if indices != nil {
				i = indices[next]
				if i < 0 || i >= m.size {
					return fmt.Errorf("scenario: sweep index %d out of range [0,%d)", i, m.size)
				}
			}
			next++
			sc := m.At(i)
			if cache != nil {
				if st, ok := cache.Get(key(sc.ID())); ok {
					c.hits++
					mCacheHits.Inc()
					c.jobs = append(c.jobs, &scenJob{sc: sc, cached: st})
					if len(c.jobs) >= chunkTrials {
						return nil
					}
					continue
				}
				c.misses++
				mCacheMisses.Inc()
			}
			bind, err := reg.Bind(sc)
			if err != nil {
				return err
			}
			users, mkUser := make([]comm.Strategy, seeds), bind.User
			c.jobs = append(c.jobs, &scenJob{sc: sc, users: users, base: len(c.trials)})
			for t := 0; t < seeds; t++ {
				c.trials = append(c.trials, system.Trial{
					User: func() (comm.Strategy, error) {
						u, err := mkUser()
						users[t] = u
						return u, err
					},
					Server: bind.Server,
					World:  bind.World,
					Config: system.Config{
						MaxRounds: bind.MaxRounds,
						Seed:      seedFn(sc, t),
						Record:    system.RecordOff,
						Referee:   bind.Goal,
					},
				})
			}
			if len(c.trials) >= chunkTrials {
				return nil
			}
		}
		return nil
	}

	sum := &Summary{Spec: m.spec.Name}
	// emit folds a chunk whose trials ran to the given results and
	// errors, stores the fresh aggregates and hands every aggregate to
	// OnStats.
	emit := func(c *chunk, results []*system.Result, errs []error) error {
		sum.CacheHits += c.hits
		sum.CacheMisses += c.misses
		sum.ExecutedTrials += len(c.trials)
		for _, job := range c.jobs {
			st := job.cached
			if st == nil {
				st = job.fold(results, errs, window)
				if cache != nil && st.Errors == 0 {
					if err := cache.Put(key(st.ID), st); err != nil {
						// An unwritable store (read-only dir, full
						// disk) must not abort a sweep whose results
						// are exact regardless: disable the cache and
						// surface the failure in the accounting.
						sum.CacheWriteError = err
						cache = nil
					}
				}
			}
			goalName, ok := st.Axis("goal")
			if !ok || goalName == "" {
				goalName = "none"
			}
			mScenarios.With(goalName).Inc()
			sum.Scenarios++
			sum.Trials += st.Trials
			sum.Errors += st.Errors
			sum.Successes += st.Successes
			sum.TotalRounds += st.ExecutedRounds
			if cfg.OnStats != nil {
				if err := cfg.OnStats(st); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Two chunk buffers alternate: cur runs while nxt is built.
	cur, nxt := new(chunk), new(chunk)
	err := build(cur, cache)
	for err == nil && len(cur.jobs) > 0 {
		var nextErr error
		built := make(chan struct{})
		go func(c *chunk, cache *Cache) {
			defer close(built)
			nextErr = build(c, cache)
		}(nxt, cache)
		var results []*system.Result
		var errs []error
		if len(cur.trials) > 0 {
			start := time.Now()
			results, errs = system.RunEach(cur.trials, system.BatchConfig{Parallelism: cfg.Parallel})
			mChunkSeconds.Observe(time.Since(start).Seconds())
			mChunkTrials.Observe(float64(len(cur.trials)))
		}
		<-built
		if err := emit(cur, results, errs); err != nil {
			return nil, err
		}
		for _, res := range results {
			system.ReleaseResult(res)
		}
		cur, nxt, err = nxt, cur, nextErr
	}
	if err != nil {
		return nil, err
	}
	if sum.Trials > 0 {
		sum.SuccessRate = float64(sum.Successes) / float64(sum.Trials)
	}
	return sum, nil
}
