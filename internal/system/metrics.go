package system

import "repro/internal/obs"

// Engine-layer metrics. Counters are package-level so RunBatch's hot
// loops touch a resolved *obs.Counter directly — one atomic add, zero
// allocations — keeping the per-goal alloc pins intact. Rounds are
// accumulated per trial (one Add of the trial's round count), not per
// round, so the inner engine loop carries no instrumentation at all.
var (
	mTrialsStarted = obs.Default().Counter("goalsweep_engine_trials_started_total",
		"Trials handed to the batch engine.")
	mTrialsFinished = obs.Default().Counter("goalsweep_engine_trials_finished_total",
		"Trials the batch engine completed (including errored trials).")
	mTrialErrors = obs.Default().Counter("goalsweep_engine_trial_errors_total",
		"Trials that returned an error.")
	mRounds = obs.Default().Counter("goalsweep_engine_rounds_total",
		"Communication rounds executed across all batch trials.")
	mBatchClaims = obs.Default().Counter("goalsweep_engine_batch_claims_total",
		"Scheduling steps: trial indices claimed by pool workers, or one per serial batch.")
)
