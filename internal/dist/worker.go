package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// workerSeq distinguishes workers created in one process (tests spawn
// several).
var workerSeq atomic.Int64

// Worker pulls shard leases from a coordinator, executes them through the
// ordinary local sweep, and submits the resulting envelopes. The zero
// value plus a Coordinator URL is a working configuration. Workers are
// job-agnostic by default: leases are pulled fair-share across every
// active job; set Job to pin one.
type Worker struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string

	// Client issues the HTTP requests; nil means http.DefaultClient. Any
	// transport works, including one that calls an in-process
	// coordinator's handler directly.
	Client *http.Client

	// Registry resolves scenarios; nil means Builtin(). The worker
	// recomputes the plan fingerprint under this registry's version and
	// refuses leases that disagree, so a worker bound differently from
	// the coordinator cannot contribute to its sweep.
	Registry *scenario.Registry

	// Parallel bounds the local trial pool; values < 1 mean GOMAXPROCS.
	Parallel int

	// Cache, when non-nil, is the shared content-addressed result store;
	// colocated workers pointing at one directory deduplicate scenario
	// executions across shards for free (writes are atomic).
	Cache *scenario.Cache

	// ID names the worker in coordinator accounting; "" derives one from
	// the process ID.
	ID string

	// Job, when non-empty, scopes the worker to one job ID: leases come
	// from POST /v1/sweeps/{job}/leases and the worker exits when that
	// job completes, even if the coordinator has other work.
	Job string

	// ExitOnIdle makes Run return once the coordinator answers
	// StatusIdle — every queued job complete, queue still open. The
	// default (false) keeps polling, the right posture for a standing
	// fleet attached to a long-lived service.
	ExitOnIdle bool

	// Poll is the wait between lease attempts while every shard is
	// claimed elsewhere, and the base of the jittered exponential
	// backoff between failed lease/submit attempts; 0 means 500ms.
	Poll time.Duration

	// MaxBackoff caps the exponential retry backoff; 0 means 16x Poll.
	MaxBackoff time.Duration

	// Retries bounds consecutive failed lease/submit attempts before the
	// worker gives up (a coordinator that is still starting up, or a
	// transient network failure, should not kill the fleet); 0 means 20.
	// Only retryable failures are retried — transport errors, truncated
	// responses, 429 overload sheds and 5xx answers; a protocol-level
	// verdict (fingerprint conflict, version mismatch) is fatal at once.
	Retries int

	// Events, when non-nil, receives one structured event per shard
	// lifecycle transition and transport retry (see internal/obs). Nil
	// means silent.
	Events *obs.Logger

	api      *Client      // lazily built /v1 client
	prepared preparedPlan // the last verified plan, see prepare
}

// preparedPlan is a worker's memo of the last plan it verified: the plan
// as leased, the registry version it was checked under, and the matrix
// and scenario selection it expands to. The worker passes the plan to
// Client.Lease as known, so a lease whose plan bytes are equal carries
// this very plan. The zero value holds nothing.
type preparedPlan struct {
	plan      *Plan
	registry  string
	matrix    *scenario.Matrix
	selection []int64
}

func (w *Worker) client() *Client {
	if w.api == nil {
		w.api = NewClient(w.Coordinator, w.Client)
	}
	return w.api
}

func (w *Worker) registry() *scenario.Registry {
	if w.Registry != nil {
		return w.Registry
	}
	return scenario.Builtin()
}

func (w *Worker) id() string {
	if w.ID == "" {
		w.ID = fmt.Sprintf("worker-%d-%d", os.Getpid(), workerSeq.Add(1))
	}
	return w.ID
}

// effectiveParallel is the pool size reported to the coordinator.
func (w *Worker) effectiveParallel() int {
	if w.Parallel > 0 {
		return w.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Run leases, executes and submits shards until the coordinator reports
// the work done or the context ends. It returns the number of shards
// this worker submitted.
func (w *Worker) Run(ctx context.Context) (int, error) {
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	retries := w.Retries
	if retries <= 0 {
		retries = 20
	}
	boff := w.newBackoff(poll)
	completed := 0
	failures := 0
	for {
		lease, err := w.lease(ctx)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return completed, ctxErr
			}
			if !w.retryableLease(err) {
				return completed, err
			}
			failures++
			mTransportRetries.Inc()
			if failures > retries {
				return completed, fmt.Errorf("dist: lease failed %d times, giving up: %w", failures, err)
			}
			wait := boff.next(RetryAfterHint(err))
			mRetryBackoff.Observe(wait.Seconds())
			w.Events.Event(obs.LevelWarn, "lease.retry",
				obs.String("worker", w.id()),
				obs.Int("attempt", failures),
				obs.Int("max", retries),
				obs.Dur("backoff", wait),
				obs.String("err", err.Error()))
			if err := sleep(ctx, wait); err != nil {
				return completed, err
			}
			continue
		}
		failures = 0
		boff.reset()
		switch lease.Status {
		case StatusDone:
			return completed, nil
		case StatusIdle:
			if w.ExitOnIdle {
				return completed, nil
			}
			mPollWaits.Inc()
			w.Events.Event(obs.LevelDebug, "lease.idle",
				obs.String("worker", w.id()),
				obs.Dur("poll", poll))
			if err := sleep(ctx, poll); err != nil {
				return completed, err
			}
		case StatusWait:
			mPollWaits.Inc()
			w.Events.Event(obs.LevelDebug, "lease.wait",
				obs.String("worker", w.id()),
				obs.Dur("poll", poll))
			if err := sleep(ctx, poll); err != nil {
				return completed, err
			}
		case StatusLease:
			stopRenew := w.startRenewer(ctx, lease)
			sr, err := w.runShard(lease)
			stopRenew()
			if err != nil {
				return completed, err
			}
			if err := w.submit(ctx, lease.LeaseID, sr, retries, poll); err != nil {
				return completed, err
			}
			completed++
			mWorkerShards.Inc()
		default:
			return completed, fmt.Errorf("dist: coordinator answered unknown lease status %q", lease.Status)
		}
	}
}

// sleep waits d or until the context ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableLease classifies a lease failure. Besides the generic
// classifier, a job-scoped worker treats 404 as transient: its job may
// simply not have been submitted yet (fleets often start before the
// first `goalsweep submit`), and the retry bound still applies.
func (w *Worker) retryableLease(err error) bool {
	if Retryable(err) {
		return true
	}
	if w.Job != "" {
		var re *RefusedError
		if errors.As(err, &re) && re.Code == http.StatusNotFound {
			return true
		}
	}
	return false
}

// retryBackoff produces capped, jittered exponential retry delays: the
// nth wait is drawn uniformly from [d/2, d) with d = base·2ⁿ clamped to
// cap, then floored by any Retry-After hint the coordinator sent. The
// jitter stream is seeded from the worker's name, so a fleet whose
// workers fail together fans its retries out instead of stampeding the
// coordinator in lockstep — deterministically per worker, and without
// touching the sweep's result bytes.
type retryBackoff struct {
	base, cap time.Duration
	rng       *xrand.Rand
	n         int
}

func (w *Worker) newBackoff(poll time.Duration) *retryBackoff {
	cap := w.MaxBackoff
	if cap <= 0 {
		cap = 16 * poll
	}
	if cap < poll {
		cap = poll
	}
	h := fnv.New64a()
	h.Write([]byte(w.id()))
	return &retryBackoff{base: poll, cap: cap, rng: xrand.New(h.Sum64())}
}

func (b *retryBackoff) reset() { b.n = 0 }

func (b *retryBackoff) next(floor time.Duration) time.Duration {
	d := b.base
	for i := 0; i < b.n && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	b.n++
	d = d/2 + time.Duration(b.rng.Float64()*float64(d/2))
	if d < floor {
		d = floor
	}
	return d
}

// startRenewer keeps a lease alive while its shard is computing, renewing
// at a third of the lease TTL so the coordinator's crash detector never
// fires on a merely slow shard. Renewal failures are logged and stop the
// renewer but never the computation: a worker whose lease lapsed anyway
// still submits, and determinism makes that submission acceptable. The
// returned stop function terminates the renewer and waits for it.
func (w *Worker) startRenewer(ctx context.Context, lease *LeaseResponse) (stop func()) {
	interval := time.Duration(lease.TTLMs) * time.Millisecond / 3
	if interval <= 0 {
		return func() {}
	}
	if interval < time.Second {
		interval = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				renewed, err := w.renew(ctx, lease.LeaseID)
				if err != nil {
					w.Events.Event(obs.LevelWarn, "renew.fail",
						obs.String("worker", w.id()),
						obs.String("lease", lease.LeaseID),
						obs.String("shard", lease.Shard.String()),
						obs.String("err", err.Error()))
					return
				}
				if !renewed {
					w.Events.Event(obs.LevelWarn, "renew.stale",
						obs.String("worker", w.id()),
						obs.String("lease", lease.LeaseID),
						obs.String("shard", lease.Shard.String()))
					return
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// renew asks the coordinator to extend one lease.
func (w *Worker) renew(ctx context.Context, leaseID string) (bool, error) {
	rr, err := w.client().Renew(ctx, leaseID)
	if err != nil {
		return false, err
	}
	return rr.Renewed, nil
}

// lease asks the coordinator for work: scoped to w.Job when set,
// fair-share otherwise.
func (w *Worker) lease(ctx context.Context) (*LeaseResponse, error) {
	return w.client().Lease(ctx, w.Job, LeaseRequest{
		Worker:   w.id(),
		Parallel: w.effectiveParallel(),
	}, w.prepared.plan)
}

// runShard executes one leased shard through the local sweep and wraps
// the result in a submit-ready upload: the envelope without its spec,
// which the coordinator attaches from its own plan.
func (w *Worker) runShard(lease *LeaseResponse) (*scenario.ShardResult, error) {
	plan := lease.Plan
	if plan == nil {
		return nil, fmt.Errorf("dist: lease %s carries no plan", lease.LeaseID)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if lease.Shard.Count != plan.Shards {
		return nil, fmt.Errorf("dist: lease %s shard %s disagrees with plan's %d-way partition",
			lease.LeaseID, lease.Shard, plan.Shards)
	}
	if err := lease.Shard.Validate(); err != nil {
		return nil, err
	}
	m, selection, err := w.prepare(plan)
	if err != nil {
		return nil, err
	}
	indices := lease.Shard.Indices(m, selection)
	var stats []*scenario.Stats
	cfg := scenario.SweepConfig{
		Registry: w.Registry,
		Parallel: w.Parallel,
		Seeds:    plan.Seeds,
		Window:   plan.Window,
		BaseSeed: plan.BaseSeed,
		Cache:    w.Cache,
		OnStats: func(st *scenario.Stats) error {
			stats = append(stats, st)
			return nil
		},
	}
	start := time.Now()
	sum, err := m.Sweep(indices, cfg)
	if err != nil {
		return nil, fmt.Errorf("dist: shard %s: %w", lease.Shard, err)
	}
	elapsed := time.Since(start)
	mComputeSeconds.Observe(elapsed.Seconds())
	w.Events.Event(obs.LevelInfo, "shard.done",
		obs.String("worker", w.id()),
		obs.String("lease", lease.LeaseID),
		obs.String("shard", lease.Shard.String()),
		obs.Int("scenarios", sum.Scenarios),
		obs.Int("executed", sum.ExecutedTrials),
		obs.Int("cacheHits", sum.CacheHits),
		obs.Dur("elapsed", elapsed))
	return &scenario.ShardResult{
		Version:     scenario.ShardFormatVersion,
		Fingerprint: plan.Fingerprint,
		Shard:       lease.Shard,
		Scenarios:   stats,
		Summary:     sum,
	}, nil
}

// prepare verifies a leased plan and returns the matrix and scenario
// selection it expands to. Every lease of a job carries the same plan,
// so the worker keeps the last one it verified and reuses its matrix and
// selection when the next lease carries that plan itself — which
// Client.Lease hands back only for equal plan bytes — under the same
// registry version. Equal bytes make an equal plan with an equal
// fingerprint, so the skew check below holds for it exactly. Any other
// plan takes the full path.
func (w *Worker) prepare(plan *Plan) (*scenario.Matrix, []int64, error) {
	version := w.registry().Version()
	if p := &w.prepared; p.plan == plan && p.registry == version {
		return p.matrix, p.selection, nil
	}
	// Recompute the fingerprint locally: it covers the spec content, this
	// worker's registry version and the effective parameters, so any skew
	// (a coordinator from a newer build, a custom registry) is caught
	// here, before a single trial runs.
	local := scenario.Fingerprint(plan.Spec, version, plan.Seeds, plan.Window, plan.BaseSeed,
		plan.SampleN, plan.SampleSeed)
	if local != plan.Fingerprint {
		return nil, nil, fmt.Errorf("dist: plan fingerprint %s does not match locally computed %s — coordinator/worker version skew",
			plan.Fingerprint, local)
	}
	m, err := scenario.NewMatrix(plan.Spec)
	if err != nil {
		return nil, nil, err
	}
	selection := plan.Selection(m)
	w.prepared = preparedPlan{plan: plan, registry: version, matrix: m, selection: selection}
	return m, selection, nil
}

// submit pushes the envelope back under its lease, retrying retryable
// failures (transport errors, truncated responses, overload sheds, 5xx)
// with jittered exponential backoff; protocol-level verdicts are fatal.
// Duplicate delivery is safe: the coordinator accepts the first envelope
// per shard and acknowledges the rest idempotently.
func (w *Worker) submit(ctx context.Context, leaseID string, sr *scenario.ShardResult, retries int, poll time.Duration) error {
	boff := w.newBackoff(poll)
	for attempt := 1; ; attempt++ {
		ack, err := w.client().SubmitResult(ctx, leaseID, sr)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			if !Retryable(err) {
				return err
			}
			mTransportRetries.Inc()
			if attempt > retries {
				return fmt.Errorf("dist: submit failed %d times, giving up: %w", attempt, err)
			}
			wait := boff.next(RetryAfterHint(err))
			mRetryBackoff.Observe(wait.Seconds())
			w.Events.Event(obs.LevelWarn, "submit.retry",
				obs.String("worker", w.id()),
				obs.String("lease", leaseID),
				obs.Int("attempt", attempt),
				obs.Int("max", retries),
				obs.Dur("backoff", wait),
				obs.String("err", err.Error()))
			if err := sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		if !ack.Accepted {
			return fmt.Errorf("dist: coordinator did not accept shard %s", sr.Shard)
		}
		return nil
	}
}
