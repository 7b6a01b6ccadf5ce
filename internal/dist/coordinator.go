package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// CoordinatorConfig tunes a coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may go without submitting or renewing
	// its shard before the coordinator assumes it crashed and re-issues
	// the lease; 0 means 2 minutes. Workers renew at a fraction of the
	// TTL while a shard is still computing, so the TTL bounds
	// crash-detection latency, not shard duration.
	LeaseTTL time.Duration

	// Now overrides the clock, for lease-expiry tests; nil means
	// time.Now.
	Now func() time.Time

	// Events, when non-nil, receives one structured event per lease and
	// submit transition (see internal/obs). Nil means silent.
	Events *obs.Logger

	// StateDir, when non-empty, is where the coordinator persists each
	// job's plan and accepted shard envelopes. A coordinator restarted
	// over the same directory resumes every job, re-queueing only the
	// shards whose envelopes are missing or invalid; corrupt or
	// mismatched artifacts are healed (removed or rewritten) rather than
	// left to fail every future restart.
	StateDir string

	// MaxInflightLeases bounds lease requests processed concurrently;
	// excess requests are shed with 429 + Retry-After instead of queueing
	// on the state mutex, so an overloaded coordinator stays responsive
	// to renews and submits. 0 means 1024; negative disables shedding.
	MaxInflightLeases int

	// SpeculateAfter enables speculative re-leasing of straggler shards:
	// when a worker asks for work, finds none open, and some shard's
	// primary lease is older than this (but unexpired — the holder may
	// well be alive, just slow), the shard is leased a second time.
	// Determinism makes the race safe: whichever copy submits first is
	// accepted and the other is acknowledged as a duplicate. 0 disables
	// speculation.
	SpeculateAfter time.Duration
}

// Coordinator is a multi-tenant sweep service: a queue of jobs (each one
// planned sweep), leased shard-by-shard to workers fair-share across
// jobs, with the resulting envelopes collected per job. It is an
// http.Handler serving the versioned /v1 resource API; all state is
// guarded by one mutex, so a coordinator can serve any number of
// concurrent workers and submitters.
type Coordinator struct {
	leaseTTL    time.Duration
	now         func() time.Time
	events      *obs.Logger
	stateDir    string
	maxInflight int
	speculate   time.Duration
	mux         *http.ServeMux

	inflightLeases atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*job // job ID -> job
	order   []*job          // submission order
	cursor  int             // index into order of the last job granted a lease
	leases  map[string]leaseInfo
	workers map[string]*workerInfo // every worker that ever polled
	nextID  int

	// Observed lease-grant → accepted-submit latency, for -shards auto.
	shardLatSum float64
	shardLatN   int64
}

// leaseInfo records who holds (or held) a lease on which shard of which
// job.
type leaseInfo struct {
	job      *job
	shard    int // 1-based
	worker   string
	parallel int
	granted  time.Time // when the lease was issued, for shard latency
}

// workerInfo is the coordinator's live view of one worker. Workers are
// job-agnostic: one registration serves however many jobs the worker's
// leases end up spanning.
type workerInfo struct {
	parallel  int
	submitted int
	lastSeen  time.Time
}

// NewService builds a coordinator with an initially empty queue. With
// cfg.StateDir set, the directory is scanned and every recorded job
// resubmitted, its completed shard envelopes resumed.
func NewService(cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		leaseTTL:    cfg.LeaseTTL,
		now:         cfg.Now,
		events:      cfg.Events,
		stateDir:    cfg.StateDir,
		maxInflight: cfg.MaxInflightLeases,
		speculate:   cfg.SpeculateAfter,
		jobs:        make(map[string]*job),
		cursor:      -1,
		leases:      make(map[string]leaseInfo),
		workers:     make(map[string]*workerInfo),
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 2 * time.Minute
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.maxInflight == 0 {
		c.maxInflight = 1024
	}
	if c.speculate < 0 {
		c.speculate = 0
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/sweeps", c.handleCreateSweep)
	c.mux.HandleFunc("GET /v1/sweeps", c.handleListSweeps)
	c.mux.HandleFunc("GET /v1/sweeps/{id}", c.handleGetSweep)
	c.mux.HandleFunc("GET /v1/sweeps/{id}/events", c.handleEvents)
	c.mux.HandleFunc("POST /v1/sweeps/{id}/leases", c.shedLease(c.handleLease))
	c.mux.HandleFunc("POST /v1/leases", c.shedLease(c.handleLease))
	c.mux.HandleFunc("POST /v1/leases/{lease}/renew", c.handleRenew)
	c.mux.HandleFunc("POST /v1/leases/{lease}/result", c.handleResult)
	c.mux.HandleFunc("GET /status", c.handleStatus)
	c.mux.HandleFunc("GET /metrics", handleMetrics)
	if c.stateDir != "" {
		if err := ensureDir(c.stateDir); err != nil {
			return nil, err
		}
		c.mu.Lock()
		err := c.recoverJobsLocked()
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// shedLease bounds concurrently-processing lease requests. Past the
// bound, the coordinator answers 429 + Retry-After immediately instead
// of letting a thundering herd of pollers pile up on the state mutex
// and starve renews and submits — the client's retry classifier treats
// the shed as retryable and backs off with the hint as a floor. Renews
// and submits are deliberately unshedded: dropping them costs real work
// (expired leases, re-executed shards), while a shed poll costs one
// backoff wait.
func (c *Coordinator) shedLease(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.maxInflight < 0 {
			h(w, r)
			return
		}
		if n := c.inflightLeases.Add(1); n > int64(c.maxInflight) {
			c.inflightLeases.Add(-1)
			mLeaseSheds.Inc()
			c.events.Event(obs.LevelWarn, "lease.shed",
				obs.Int64("inflight", n-1),
				obs.Int("max", c.maxInflight))
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("dist: coordinator overloaded: %d lease requests in flight", n-1),
				http.StatusTooManyRequests)
			return
		}
		defer c.inflightLeases.Add(-1)
		h(w, r)
	}
}

// handleMetrics serves the process-wide metric registry in Prometheus
// text exposition format. Every layer registers against the default
// registry, so a scrape of the coordinator also surfaces engine, sweep
// and cache activity from any in-process workers.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	obs.Default().WriteProm(w)
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// submitPlanLocked resolves a plan into the queue: the existing job if
// one with the same derived ID is already queued (created false), a new
// job otherwise. New jobs resume any valid envelopes already persisted
// under the state directory. Called with c.mu held.
func (c *Coordinator) submitPlanLocked(plan Plan) (*job, bool, error) {
	if err := plan.Validate(); err != nil {
		return nil, false, err
	}
	if j, ok := c.jobs[JobID(plan)]; ok {
		return j, false, nil
	}
	j := newJob(plan)
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	mJobsSubmitted.Inc()
	c.events.Event(obs.LevelInfo, "sweep.submit",
		obs.String("spec", plan.Spec.Name),
		obs.String("fingerprint", plan.Fingerprint),
		obs.Int("shards", plan.Shards),
		obs.String("job", j.id))
	c.persistPlanLocked(j)
	c.resumeShardsLocked(j)
	if j.complete() {
		c.completeJobLocked(j)
	}
	mJobsActive.Set(float64(c.activeJobsLocked()))
	return j, true, nil
}

// activeJobsLocked counts queued jobs that are not yet complete.
func (c *Coordinator) activeJobsLocked() int {
	n := 0
	for _, j := range c.order {
		if !j.complete() {
			n++
		}
	}
	return n
}

// completeJobLocked marks one job complete: closes its done channel and
// ends its event streams. Idempotent; called with c.mu held.
func (c *Coordinator) completeJobLocked(j *job) {
	select {
	case <-j.done:
		return
	default:
	}
	close(j.done)
	c.events.Event(obs.LevelInfo, "sweep.complete",
		obs.String("spec", j.plan.Spec.Name),
		obs.String("fingerprint", j.plan.Fingerprint),
		obs.Int("shards", j.plan.Shards),
		obs.String("job", j.id))
	c.publishLocked(j, completeFrame(j))
	c.closeSubsLocked(j)
	mJobsActive.Set(float64(c.activeJobsLocked()))
}

// sawWorkerLocked refreshes the coordinator's liveness view of one
// worker. Called with c.mu held; worker may be "" (never recorded).
func (c *Coordinator) sawWorkerLocked(worker string, parallel int) {
	if worker == "" {
		return
	}
	wi := c.workers[worker]
	if wi == nil {
		wi = &workerInfo{}
		c.workers[worker] = wi
	}
	if parallel != 0 {
		wi.parallel = parallel
	}
	wi.lastSeen = c.now()
	mWorkerLastSeen.With(worker).Set(float64(wi.lastSeen.UnixMilli()) / 1000)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// httpErr is a handler outcome carried from a locked state transition to
// the unlocked socket write.
type httpErr struct {
	code int
	msg  string
}

// Auto-sharding (-shards auto) parameters: start from a few shards per
// registered worker (so a fleet keeps its pipeline full and a straggler
// costs 1/perWorker of the job, not half of it), widen the partition
// when observed shard latency exceeds the target (long shards mean
// coarse progress and expensive lease expiries), and never exceed the
// cap or the job's scenario count.
const (
	autoShardPerWorker     = 4
	autoShardTargetSeconds = 10.0
	autoShardMax           = 256
)

// autoShardsLocked sizes a partition for a job of `selection` scenarios
// from the current worker count and the observed lease-grant-to-submit
// latency (the PR 7 shard-seconds histogram feed). Called with c.mu
// held.
func (c *Coordinator) autoShardsLocked(selection int64) int {
	workers := len(c.workers)
	if workers < 1 {
		workers = 1
	}
	n := autoShardPerWorker * workers
	if c.shardLatN > 0 {
		mean := c.shardLatSum / float64(c.shardLatN)
		if k := int(mean / autoShardTargetSeconds); k > 1 {
			n *= k
		}
	}
	if n > autoShardMax {
		n = autoShardMax
	}
	if selection > 0 && int64(n) > selection {
		n = int(selection)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// handleCreateSweep admits one sweep into the queue: POST /v1/sweeps
// with a SweepRequest body answers a SweepResponse — 201 and the new
// job when the sweep was admitted, 200 and the existing job when an
// identical sweep (same fingerprint, same partition) is already queued.
func (c *Coordinator) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := scenario.DecodeStrict(r.Body, &req); err != nil {
		http.Error(w, fmt.Sprintf("dist: decode sweep request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Protocol != ProtocolVersion {
		http.Error(w, fmt.Sprintf("dist: protocol version %d, want %d", req.Protocol, ProtocolVersion),
			http.StatusBadRequest)
		return
	}
	if req.Spec == nil {
		http.Error(w, "dist: sweep request has no spec", http.StatusBadRequest)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Shards < 0 {
		http.Error(w, fmt.Sprintf("dist: shard count %d < 0", req.Shards), http.StatusBadRequest)
		return
	}
	m, err := scenario.NewMatrix(req.Spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	selection := m.Size()
	if req.SampleN > 0 && int64(req.SampleN) < selection {
		selection = int64(req.SampleN)
	}
	resp, herr := c.createSweepLocked(req, selection)
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	code := http.StatusOK
	if resp.Created {
		code = http.StatusCreated
	}
	writeJSONStatus(w, code, resp)
}

func (c *Coordinator) createSweepLocked(req SweepRequest, selection int64) (*SweepResponse, *httpErr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	shards := req.Shards
	if shards == 0 {
		shards = c.autoShardsLocked(selection)
	}
	cfg := scenario.SweepConfig{Seeds: req.Seeds, Window: req.Window, BaseSeed: req.BaseSeed}
	plan, err := NewPlan(req.Spec, scenario.Builtin().Version(), cfg, shards, req.SampleN, req.SampleSeed)
	if err != nil {
		return nil, &httpErr{http.StatusBadRequest, err.Error()}
	}
	j, created, err := c.submitPlanLocked(plan)
	if err != nil {
		return nil, &httpErr{http.StatusBadRequest, err.Error()}
	}
	return &SweepResponse{Protocol: ProtocolVersion, Created: created, Job: c.jobStatusLocked(j, true)}, nil
}

// handleListSweeps answers GET /v1/sweeps: every queued job, in
// submission order, without per-shard detail.
func (c *Coordinator) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jobs := make([]JobStatus, 0, len(c.order))
	for _, j := range c.order {
		jobs = append(jobs, c.jobStatusLocked(j, false))
	}
	c.mu.Unlock()
	writeJSON(w, jobs)
}

// handleGetSweep answers GET /v1/sweeps/{id}: one job with its shard
// states.
func (c *Coordinator) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	var js JobStatus
	if ok {
		js = c.jobStatusLocked(j, true)
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("dist: unknown sweep %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, js)
}

// jobStatusLocked computes one job's progress accounting. Called with
// c.mu held.
func (c *Coordinator) jobStatusLocked(j *job, withShards bool) JobStatus {
	js := JobStatus{
		ID:          j.id,
		Spec:        j.plan.Spec.Name,
		Fingerprint: j.plan.Fingerprint,
		Shards:      j.plan.Shards,
		Resumed:     j.resumed,
		Complete:    j.complete(),
	}
	now := c.now()
	states := make([]ShardStatus, len(j.shards))
	for i := range j.shards {
		ss := ShardStatus{
			Shard: scenario.Shard{Index: i + 1, Count: j.plan.Shards}.String(),
			Lease: j.shards[i].leaseID,
		}
		if li, ok := c.leases[j.shards[i].leaseID]; ok {
			ss.Worker = li.worker
		}
		switch {
		case j.shards[i].done:
			js.Done++
			ss.State = "done"
		case j.shards[i].leaseID != "" && now.Before(j.shards[i].expires),
			j.shards[i].specLeaseID != "" && now.Before(j.shards[i].specExpires):
			js.Leased++
			ss.State = "leased"
		default:
			js.Pending++
			ss.State = "pending"
			ss.Worker = ""
		}
		states[i] = ss
	}
	if j.plan.Shards > 0 {
		js.Progress = float64(js.Done) / float64(j.plan.Shards)
	}
	if withShards {
		js.ShardStates = states
	}
	return js
}

// handleLease is POST /v1/leases (job-agnostic work pull, granted
// fair-share round-robin across every active job) and POST
// /v1/sweeps/{id}/leases (work pull restricted to one job; the global
// route has no id).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := scenario.DecodeStrict(r.Body, &req); err != nil {
		http.Error(w, fmt.Sprintf("dist: decode lease request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Protocol != ProtocolVersion {
		http.Error(w, fmt.Sprintf("dist: protocol version %d, want %d", req.Protocol, ProtocolVersion),
			http.StatusBadRequest)
		return
	}
	resp, herr := c.leaseLocked(req, r.PathValue("id"))
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	writeLease(w, resp)
}

// writeLease writes a lease answer, byte for byte what writeJSON writes,
// but a grant's plan is copied from the bytes its job encoded once
// (Plan.wire) instead of being encoded again.
func writeLease(w http.ResponseWriter, resp LeaseResponse) {
	if resp.Plan == nil || resp.Plan.wire == nil {
		writeJSON(w, resp)
		return
	}
	plan := resp.Plan.wire
	resp.Plan = nil
	head, _ := json.Marshal(resp) // strings and integers always encode
	// The plan member comes last but for ttlMs, which is omitted when
	// zero. A string json.Marshal writes escapes every quote in it, so
	// the last `,"ttlMs":` is the member.
	at := len(head) - 1
	if resp.TTLMs != 0 {
		at = bytes.LastIndex(head, []byte(`,"ttlMs":`))
	}
	body := make([]byte, 0, len(head)+len(`,"plan":`)+len(plan)+1)
	body = append(body, head[:at]...)
	body = append(body, `,"plan":`...)
	body = append(body, plan...)
	body = append(body, head[at:]...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// leaseLocked is the lease state transition; it returns the response to
// send after the lock is released — a stalled client connection must
// never block the other endpoints (a blocked renew would expire healthy
// leases). jobScope, when non-empty, restricts the grant to that job.
func (c *Coordinator) leaseLocked(req LeaseRequest, jobScope string) (LeaseResponse, *httpErr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.Worker, req.Parallel)
	if jobScope != "" {
		j, ok := c.jobs[jobScope]
		if !ok {
			return LeaseResponse{}, &httpErr{http.StatusNotFound, fmt.Sprintf("dist: unknown sweep %q", jobScope)}
		}
		if j.complete() {
			return LeaseResponse{Protocol: ProtocolVersion, Status: StatusDone}, nil
		}
		if resp := c.tryGrantLocked(j, req); resp != nil {
			return *resp, nil
		}
		return LeaseResponse{Protocol: ProtocolVersion, Status: StatusWait}, nil
	}
	if c.activeJobsLocked() == 0 {
		return LeaseResponse{Protocol: ProtocolVersion, Status: StatusIdle}, nil
	}

	// Job-agnostic pull: fair-share round-robin. The scan starts at the
	// job after the last one granted, so a long job and a short one
	// alternate grants instead of the long one starving the short.
	n := len(c.order)
	for k := 1; k <= n; k++ {
		j := c.order[(c.cursor+k+n)%n]
		if j.complete() {
			continue
		}
		if resp := c.tryGrantLocked(j, req); resp != nil {
			c.cursor = (c.cursor + k + n) % n
			return *resp, nil
		}
	}
	return LeaseResponse{Protocol: ProtocolVersion, Status: StatusWait}, nil
}

// tryGrantLocked leases the lowest open (or expired-lease) shard of one
// job to the asking worker; with no such shard and speculation enabled,
// it speculatively re-leases the oldest straggler shard instead. It
// returns nil if nothing is grantable. Called with c.mu held. The
// embedded *Plan is immutable after construction, so sharing the
// pointer outside the lock is safe.
func (c *Coordinator) tryGrantLocked(j *job, req LeaseRequest) *LeaseResponse {
	now := c.now()
	for i := range j.shards {
		st := &j.shards[i]
		if st.done || (st.leaseID != "" && now.Before(st.expires)) {
			continue
		}
		if st.leaseID != "" {
			mLeasesExpired.With(j.id).Inc()
			c.events.Event(obs.LevelWarn, "lease.expire",
				obs.String("lease", st.leaseID),
				obs.String("shard", scenario.Shard{Index: i + 1, Count: j.plan.Shards}.String()),
				obs.String("worker", c.leases[st.leaseID].worker),
				obs.String("job", j.id))
		}
		c.nextID++
		st.leaseID = fmt.Sprintf("lease-%d", c.nextID)
		st.expires = now.Add(c.leaseTTL)
		c.leases[st.leaseID] = leaseInfo{job: j, shard: i + 1, worker: req.Worker, parallel: req.Parallel, granted: now}
		mLeasesGranted.With(j.id).Inc()
		c.events.Event(obs.LevelInfo, "lease.grant",
			obs.String("lease", st.leaseID),
			obs.String("shard", scenario.Shard{Index: i + 1, Count: j.plan.Shards}.String()),
			obs.String("worker", req.Worker),
			obs.Int64("ttlMs", c.leaseTTL.Milliseconds()),
			obs.String("job", j.id))
		return c.leaseResponseLocked(j, i+1, st.leaseID)
	}
	return c.trySpeculateLocked(j, req, now)
}

// trySpeculateLocked re-leases a straggler shard before its primary
// lease expires: every shard is live-leased, the asking worker would
// otherwise idle, and a shard whose primary lease is older than the
// speculation threshold may well be held by a worker that is slow (or
// quietly dead but still renewing its way through a wedged sweep).
// Rather than waste the idle worker, race it: determinism makes both
// copies byte-identical, first-accept idempotency makes the race safe,
// and the loser's submit is acknowledged as a duplicate. At most one
// speculative lease per shard is live at a time, the oldest primary is
// speculated first, and a worker never races itself. Called with c.mu
// held.
func (c *Coordinator) trySpeculateLocked(j *job, req LeaseRequest, now time.Time) *LeaseResponse {
	if c.speculate <= 0 {
		return nil
	}
	best := -1
	var bestGranted time.Time
	for i := range j.shards {
		st := &j.shards[i]
		if st.done || st.leaseID == "" || !now.Before(st.expires) {
			continue // open or expired shards belong to the primary pass
		}
		if st.specLeaseID != "" && now.Before(st.specExpires) {
			continue // already racing
		}
		li := c.leases[st.leaseID]
		if li.worker != "" && li.worker == req.Worker {
			continue // don't race yourself
		}
		if now.Sub(li.granted) < c.speculate {
			continue // not a straggler yet
		}
		if best == -1 || li.granted.Before(bestGranted) {
			best, bestGranted = i, li.granted
		}
	}
	if best == -1 {
		return nil
	}
	st := &j.shards[best]
	c.nextID++
	st.specLeaseID = fmt.Sprintf("lease-%d", c.nextID)
	st.specExpires = now.Add(c.leaseTTL)
	c.leases[st.specLeaseID] = leaseInfo{job: j, shard: best + 1, worker: req.Worker, parallel: req.Parallel,
		granted: now}
	mLeasesSpeculated.With(j.id).Inc()
	c.events.Event(obs.LevelWarn, "lease.speculate",
		obs.String("lease", st.specLeaseID),
		obs.String("primary", st.leaseID),
		obs.String("shard", scenario.Shard{Index: best + 1, Count: j.plan.Shards}.String()),
		obs.String("worker", req.Worker),
		obs.Dur("primaryAge", now.Sub(bestGranted)),
		obs.String("job", j.id))
	return c.leaseResponseLocked(j, best+1, st.specLeaseID)
}

// leaseResponseLocked shapes the grant answer for one shard lease.
func (c *Coordinator) leaseResponseLocked(j *job, shard int, leaseID string) *LeaseResponse {
	return &LeaseResponse{
		Protocol: ProtocolVersion,
		Status:   StatusLease,
		LeaseID:  leaseID,
		Job:      j.id,
		Shard:    scenario.Shard{Index: shard, Count: j.plan.Shards},
		Plan:     &j.plan,
		TTLMs:    c.leaseTTL.Milliseconds(),
	}
}

// handleRenew extends a live lease: POST /v1/leases/{lease}/renew.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	rr, herr := c.renewLocked(r.PathValue("lease"))
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	writeJSON(w, rr)
}

// renewLocked extends a live lease: workers renew while a shard's sweep
// is still running, so the lease TTL bounds crash *detection* latency,
// not shard duration. A renewal is refused (Renewed false, not an error)
// when the lease is no longer the shard's current one — the shard was
// submitted, or the lease expired and was re-issued.
func (c *Coordinator) renewLocked(leaseID string) (RenewResponse, *httpErr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.leases[leaseID]
	if !ok {
		return RenewResponse{}, &httpErr{http.StatusNotFound, fmt.Sprintf("dist: unknown lease %q", leaseID)}
	}
	st := &li.job.shards[li.shard-1]
	switch {
	case st.done:
		return RenewResponse{Renewed: false}, nil
	case st.leaseID == leaseID:
		st.expires = c.now().Add(c.leaseTTL)
	case st.specLeaseID == leaseID:
		st.specExpires = c.now().Add(c.leaseTTL)
	default:
		return RenewResponse{Renewed: false}, nil
	}
	c.sawWorkerLocked(li.worker, li.parallel)
	mLeasesRenewed.Inc()
	c.events.Event(obs.LevelDebug, "lease.renew",
		obs.String("lease", leaseID),
		obs.String("shard", scenario.Shard{Index: li.shard, Count: li.job.plan.Shards}.String()),
		obs.String("worker", li.worker),
		obs.String("job", li.job.id))
	return RenewResponse{Renewed: true, TTLMs: c.leaseTTL.Milliseconds()}, nil
}

// handleResult validates and stores one shard envelope: POST
// /v1/leases/{lease}/result. The body is the envelope without its spec:
// the coordinator holds the plan's, attaches it once the lease,
// fingerprint and shard coordinates check out, and validates the
// completed envelope's framing before it is persisted, published or
// merged. An upload that carries a spec of its own is refused, so no
// stored envelope names a spec its job was not planned with.
// Submissions under an expired lease are accepted as long as the shard
// is still open — sweeps are deterministic, so a straggler's envelope is
// byte-identical to the re-leased worker's — and submissions for an
// already-completed shard are acknowledged idempotently and discarded.
//
// The body is read once, by ShardReader.Decode. A compact upload, as
// workers send it, is read in one pass and is then json.Marshal of its
// envelope without a spec, so its own bytes are what the job records;
// any other body is decoded strictly, whose errors it answers with, and
// encoded again without its spec.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		c.rejectSubmit("decode", err.Error())
		http.Error(w, fmt.Sprintf("dist: decode shard result: %v", err), http.StatusUnprocessableEntity)
		return
	}
	sr, compact, err := new(scenario.ShardReader).Decode(body)
	if err != nil {
		c.rejectSubmit("decode", err.Error())
		http.Error(w, fmt.Sprintf("dist: decode shard result: %v", err), http.StatusUnprocessableEntity)
		return
	}
	if sr.Spec != nil {
		c.rejectSubmit("spec", sr.Spec.Name)
		http.Error(w, "dist: result upload carries a spec; the coordinator attaches its plan's",
			http.StatusUnprocessableEntity)
		return
	}
	bare := body
	if !compact {
		bare, _ = json.Marshal(sr) // a decoded envelope always encodes
	}
	ack, herr := c.submitLocked(r.PathValue("lease"), sr, bare)
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	writeJSON(w, ack)
}

// rejectSubmit records one refused envelope in the metrics and the event
// log.
func (c *Coordinator) rejectSubmit(reason, detail string) {
	mSubmitsRejected.With(reason).Inc()
	c.events.Event(obs.LevelWarn, "submit.reject",
		obs.String("reason", reason),
		obs.String("detail", detail))
}

// submitLocked checks and records one upload under a lease; bare is
// json.Marshal of the upload, which carries no spec.
func (c *Coordinator) submitLocked(leaseID string, sr *scenario.ShardResult, bare []byte) (SubmitResponse, *httpErr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.leases[leaseID]
	if !ok {
		c.rejectSubmit("unknown_lease", leaseID)
		return SubmitResponse{}, &httpErr{http.StatusNotFound, fmt.Sprintf("dist: unknown lease %q", leaseID)}
	}
	c.sawWorkerLocked(li.worker, li.parallel)
	j := li.job
	idx := li.shard
	// Validate the envelope against the job's plan before it can reach
	// MergeShards: the fingerprint proves the worker ran the same sweep
	// (same spec content, registry version, seeds, window, base seed and
	// sample selection), the shard coordinates must be the leased ones,
	// and the envelope completed with the plan's spec must be well framed.
	if sr.Fingerprint != j.plan.Fingerprint {
		c.rejectSubmit("fingerprint", sr.Fingerprint)
		return SubmitResponse{}, &httpErr{http.StatusConflict,
			fmt.Sprintf("dist: envelope fingerprint %s does not match plan %s — worker ran a different sweep",
				sr.Fingerprint, j.plan.Fingerprint)}
	}
	if sr.Shard.Index != idx || sr.Shard.Count != j.plan.Shards {
		c.rejectSubmit("shard", sr.Shard.String())
		return SubmitResponse{}, &httpErr{http.StatusConflict,
			fmt.Sprintf("dist: envelope covers shard %s but lease %s names shard %d/%d",
				sr.Shard, leaseID, idx, j.plan.Shards)}
	}
	sr.Spec = j.plan.Spec
	if err := sr.Validate(); err != nil {
		c.rejectSubmit("decode", err.Error())
		return SubmitResponse{}, &httpErr{http.StatusUnprocessableEntity, err.Error()}
	}
	if j.shards[idx-1].done {
		// A straggler finished after its shard was re-leased and
		// resubmitted; its bytes are identical by determinism, so just
		// acknowledge.
		mSubmitsDuplicate.With(j.id).Inc()
		c.events.Event(obs.LevelInfo, "submit.duplicate",
			obs.String("lease", leaseID),
			obs.String("shard", sr.Shard.String()),
			obs.String("worker", li.worker),
			obs.String("job", j.id))
		return SubmitResponse{Accepted: true, Done: j.complete()}, nil
	}
	data := j.record(sr, bare)
	if wi := c.workers[li.worker]; wi != nil {
		wi.submitted++
	}
	mSubmitsAccepted.With(j.id).Inc()
	if !li.granted.IsZero() {
		secs := c.now().Sub(li.granted).Seconds()
		mShardSeconds.With(j.id).Observe(secs)
		c.shardLatSum += secs
		c.shardLatN++
	}
	c.persistShardLocked(j, idx, data)
	c.events.Event(obs.LevelInfo, "submit.accept",
		obs.String("lease", leaseID),
		obs.String("shard", sr.Shard.String()),
		obs.String("worker", li.worker),
		obs.Int("done", len(j.results)),
		obs.Int("shards", j.plan.Shards),
		obs.String("job", j.id))
	c.publishLocked(j, j.frames[idx])
	complete := j.complete()
	if complete {
		c.completeJobLocked(j)
	}
	return SubmitResponse{Accepted: true, Done: complete}, nil
}

// handleStatus reports progress: the whole queue under Jobs, plus fleet
// liveness.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.statusLocked())
}

func (c *Coordinator) statusLocked() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{
		Protocol: ProtocolVersion,
		Workers:  len(c.workers),
		Complete: len(c.order) > 0 && c.activeJobsLocked() == 0,
		Jobs:     make([]JobStatus, 0, len(c.order)),
	}
	for _, j := range c.order {
		st.Jobs = append(st.Jobs, c.jobStatusLocked(j, true))
	}
	now := c.now()
	st.WorkerStates = make([]WorkerStatus, 0, len(c.workers))
	for id, wi := range c.workers {
		st.WorkerStates = append(st.WorkerStates, WorkerStatus{
			ID:         id,
			Parallel:   wi.parallel,
			Submitted:  wi.submitted,
			LastSeenMs: now.Sub(wi.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(st.WorkerStates, func(i, j int) bool { return st.WorkerStates[i].ID < st.WorkerStates[j].ID })
	return st
}

// Jobs returns every queued job's status, in submission order, with
// shard states.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	jobs := make([]JobStatus, 0, len(c.order))
	for _, j := range c.order {
		jobs = append(jobs, c.jobStatusLocked(j, true))
	}
	return jobs
}

func (c *Coordinator) jobByID(id string) (*job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("dist: unknown sweep %q", id)
	}
	return j, nil
}

// JobMerged reassembles the named job's collected envelopes into the
// unsharded sweep's stats stream and summary; it errors if any shard is
// still missing.
func (c *Coordinator) JobMerged(id string) ([]*scenario.Stats, *scenario.Summary, error) {
	j, err := c.jobByID(id)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	shards := make([]*scenario.ShardResult, 0, len(j.results))
	for _, sr := range j.results {
		shards = append(shards, sr)
	}
	missing := j.plan.Shards - len(j.results)
	c.mu.Unlock()
	if missing > 0 {
		return nil, nil, fmt.Errorf("dist: %d of %d shards not yet submitted", missing, j.plan.Shards)
	}
	return scenario.MergeShards(shards)
}
