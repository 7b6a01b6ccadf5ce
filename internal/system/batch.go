package system

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/goal"
)

// Trial specifies one independent (user, server, world) execution inside a
// batch. The factories are invoked exactly once each, on the worker
// goroutine that runs the trial, so construction cost parallelizes along
// with execution; they must not share mutable state across trials (a
// factory may return a shared value only if that value is stateless, like
// an immutable server).
type Trial struct {
	// User constructs the user strategy; a non-nil error fails the
	// trial.
	User func() (comm.Strategy, error)

	// Server constructs the server strategy.
	Server func() comm.Strategy

	// World constructs the world.
	World func() goal.World

	// Config is the per-trial engine configuration.
	Config Config
}

// BatchConfig controls batch scheduling.
type BatchConfig struct {
	// Parallelism bounds the worker pool; values < 1 mean GOMAXPROCS.
	// Results are byte-identical at every parallelism level, so 1 is a
	// debugging aid, not a semantic switch.
	Parallelism int
}

func (cfg BatchConfig) workers(n int) int {
	w := cfg.Parallelism
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// DeriveSeed maps a root seed and a trial index to an independent per-trial
// seed (splitmix64 of the index under the root). Sweeps derive every
// trial's Config.Seed with it, so any single trial can be reproduced in
// isolation.
func DeriveSeed(root uint64, trial int) uint64 {
	z := root + 0x9E3779B97F4A7C15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RunBatch executes every trial across a bounded worker pool and returns
// the results in submission order, so parallel output is identical to
// serial output. Every trial runs, as in RunEach; on failure RunBatch
// returns the error of the lowest-index failing trial (deterministically,
// regardless of scheduling) and no results.
func RunBatch(trials []Trial, cfg BatchConfig) ([]*Result, error) {
	results, errs := RunEach(trials, cfg)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("system: trial %d: %w", i, err)
		}
	}
	return results, nil
}

// RunEach executes every trial across a bounded worker pool and tolerates
// individual failures: it always returns one result and one error per
// trial, in submission order (results[i] is nil exactly where errs[i] is
// non-nil). Use it for certification sweeps that treat a failing trial as
// data rather than as a reason to abort.
func RunEach(trials []Trial, cfg BatchConfig) ([]*Result, []error) {
	// Not named results: the workers capture these, and a captured
	// variable that is assigned after its declaration moves to the heap.
	n := len(trials)
	results := make([]*Result, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}

	workers := cfg.workers(n)
	if workers <= 1 {
		mBatchClaims.Inc()
		for i := range trials {
			results[i], errs[i] = runTrial(&trials[i])
		}
		return results, errs
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Claim the next trial index.
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				mBatchClaims.Inc()
				results[i], errs[i] = runTrial(&trials[i])
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runTrial constructs one trial's parties and executes it.
func runTrial(t *Trial) (*Result, error) {
	mTrialsStarted.Inc()
	if t.User == nil || t.Server == nil || t.World == nil {
		mTrialsFinished.Inc()
		mTrialErrors.Inc()
		return nil, errors.New("system: trial needs User, Server and World factories")
	}
	user, err := t.User()
	if err != nil {
		mTrialsFinished.Inc()
		mTrialErrors.Inc()
		return nil, err
	}
	res, err := Run(user, t.Server(), t.World(), t.Config)
	mTrialsFinished.Inc()
	if err != nil {
		mTrialErrors.Inc()
	} else if res != nil {
		mRounds.Add(int64(res.Rounds))
	}
	return res, err
}
