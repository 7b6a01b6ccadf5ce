package dist

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// quickSpec returns the quick builtin spec.
func quickSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// loopbackAPI builds a /v1 client over an in-process coordinator.
func loopbackAPI(c *Coordinator) *Client {
	return NewClient("http://coordinator", LoopbackClient(c))
}

// TestCoordinatorRestartResume is the resume acceptance criterion: a
// coordinator dies mid-job, a new one starts over the same state
// directory, only the missing shards re-execute (zero re-executed trials
// for the done shard, pinned via the engine's trial counter), and the
// merged report is byte-identical to a fresh serial run. Deliberately
// not parallel: it asserts deltas of the process-global engine counter.
func TestCoordinatorRestartResume(t *testing.T) {
	stateDir := t.TempDir()
	plan := builtinPlan(t, "quick", 3)

	// First incarnation: one worker completes shard 1/3, then the
	// process "crashes" (the coordinator is simply dropped).
	coord1, err := NewCoordinator(plan, CoordinatorConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	client1 := LoopbackClient(coord1)
	w1 := &Worker{Coordinator: "http://coordinator", Client: client1, ID: "w1", Poll: time.Millisecond}
	lease, _ := postLease(t, client1, LeaseRequest{Protocol: ProtocolVersion, Worker: "w1"})
	if lease.Status != StatusLease || lease.Shard.Index != 1 {
		t.Fatalf("leased %+v, want shard 1/3", lease)
	}
	sr, err := w1.runShard(lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same directory: shard 1 resumes from
	// its on-disk envelope, shards 2 and 3 are still open.
	coord2, err := NewCoordinator(plan, CoordinatorConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	jobs := coord2.Jobs()
	if len(jobs) != 1 || jobs[0].Resumed != 1 || jobs[0].Done != 1 || jobs[0].Pending != 2 {
		t.Fatalf("restarted coordinator jobs = %+v, want 1 job with 1 resumed / 1 done / 2 pending", jobs)
	}

	// Drain the remaining shards and count trials the engine actually
	// started: exactly the two open shards' worth (quick = 12 scenarios
	// x 1 seed over 3 shards = 4 trials per shard), zero for the
	// resumed one.
	trialCounter := obs.Default().Counter("goalsweep_engine_trials_started_total",
		"Trials handed to the batch engine.")
	trials0 := trialCounter.Value()
	w2 := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord2), ID: "w2", Poll: time.Millisecond}
	if n, err := w2.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("worker after restart: (%d, %v), want (2, nil)", n, err)
	}
	if got := trialCounter.Value() - trials0; got != 8 {
		t.Fatalf("engine started %d trials after restart, want 8 (resumed shard re-executed?)", got)
	}
	if got, want := mergedReport(t, coord2), serialReport(t, plan); got != want {
		t.Fatal("resumed merged report differs from fresh serial run")
	}
}

// TestServiceRecoverState: a service coordinator restarted over its
// state directory rebuilds the whole queue — jobs, completion, merged
// results — from the persisted plans and envelopes.
func TestServiceRecoverState(t *testing.T) {
	t.Parallel()

	stateDir := t.TempDir()
	svc1, err := NewService(CoordinatorConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	api1 := loopbackAPI(svc1)
	created, err := api1.CreateSweep(context.Background(), SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !created.Created {
		t.Fatalf("first submission not created: %+v", created)
	}
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(svc1), Poll: time.Millisecond, ExitOnIdle: true}
	if n, err := w.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("worker: (%d, %v), want (2, nil)", n, err)
	}

	svc2, err := NewService(CoordinatorConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	jobs := svc2.Jobs()
	if len(jobs) != 1 || !jobs[0].Complete || jobs[0].Resumed != 2 || jobs[0].ID != created.Job.ID {
		t.Fatalf("recovered jobs = %+v, want the completed job %s", jobs, created.Job.ID)
	}
	if _, _, err := svc2.JobMerged(created.Job.ID); err != nil {
		t.Fatalf("recovered job not mergeable: %v", err)
	}
	// Resubmitting the same sweep to the recovered service is idempotent.
	again, err := loopbackAPI(svc2).CreateSweep(context.Background(), SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Created || again.Job.ID != created.Job.ID {
		t.Fatalf("resubmission after recovery: %+v, want existing job %s", again, created.Job.ID)
	}
}

// TestFairShareLeasing pins the multi-tenant grant order: with two
// active jobs, job-agnostic leases alternate between them instead of
// draining the first job before touching the second.
func TestFairShareLeasing(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx := context.Background()
	// Two sweeps with distinct fingerprints (the seeds override) and two
	// shards each.
	a, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Job.ID == b.Job.ID {
		t.Fatalf("expected two distinct jobs, got %s twice", a.Job.ID)
	}

	var grants []string
	for i := 0; i < 4; i++ {
		lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if lease.Status != StatusLease {
			t.Fatalf("grant %d answered %q, want a lease", i, lease.Status)
		}
		grants = append(grants, lease.Job+"#"+strconv.Itoa(lease.Shard.Index))
	}
	want := []string{a.Job.ID + "#1", b.Job.ID + "#1", a.Job.ID + "#2", b.Job.ID + "#2"}
	for i := range want {
		if grants[i] != want[i] {
			t.Fatalf("grant order %v, want interleaved %v", grants, want)
		}
	}
	// Every shard is leased: the next ask waits.
	if lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"}); err != nil || lease.Status != StatusWait {
		t.Fatalf("fifth ask = (%+v, %v), want wait", lease, err)
	}
}

// TestTwoConcurrentJobsByteIdentical is the multi-tenant acceptance
// criterion: two jobs on one coordinator, drained by a shared fleet,
// each merge byte-identical to a fresh serial run of their spec.
func TestTwoConcurrentJobsByteIdentical(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx := context.Background()
	a, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 3, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(svc),
				ID: "w" + strconv.Itoa(i), Poll: time.Millisecond, ExitOnIdle: true}
			_, errs[i] = w.Run(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	planA := builtinPlan(t, "quick", 2)
	specB := quickSpec(t)
	planB, err := NewPlan(specB, scenario.Builtin().Version(), scenario.SweepConfig{Seeds: 2}, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   string
		plan Plan
	}{{a.Job.ID, planA}, {b.Job.ID, planB}} {
		stats, sum, err := svc.JobMerged(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalReport(t, stats, sum), serialReport(t, tc.plan); got != want {
			t.Fatalf("job %s merged report differs from fresh serial run", tc.id)
		}
	}
}

// TestSweepEventsStream drives the SSE surface through the loopback
// client: a subscriber collects every shard envelope plus the complete
// frame, and the envelopes merge byte-identically to a serial run. A
// second subscription after completion replays the whole stream.
func TestSweepEventsStream(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	created, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobID := created.Job.ID

	// The worker drains the job concurrently; the subscription completes
	// when the job does (the loopback transport delivers the buffered
	// stream once the handler returns).
	var wg sync.WaitGroup
	wg.Add(1)
	var workerErr error
	go func() {
		defer wg.Done()
		w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(svc),
			Poll: time.Millisecond, ExitOnIdle: true}
		_, workerErr = w.Run(ctx)
	}()

	collect := func() (shards []*scenario.ShardResult, complete *CompleteEvent) {
		t.Helper()
		err := api.Events(ctx, jobID, func(ev SweepEvent) error {
			switch ev.Type {
			case EventShard:
				sr, err := scenario.ReadShardResult(bytes.NewReader(ev.Data))
				if err != nil {
					return err
				}
				shards = append(shards, sr)
			case EventComplete:
				var ce CompleteEvent
				if err := decodeJSONStrict(ev.Data, &ce); err != nil {
					return err
				}
				complete = &ce
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return shards, complete
	}

	shards, complete := collect()
	wg.Wait()
	if workerErr != nil {
		t.Fatal(workerErr)
	}
	if len(shards) != 2 || complete == nil || complete.ID != jobID || complete.Shards != 2 {
		t.Fatalf("stream delivered %d shards, complete=%+v; want 2 shards + complete", len(shards), complete)
	}
	stats, sum, err := scenario.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalReport(t, stats, sum), serialReport(t, builtinPlan(t, "quick", 2)); got != want {
		t.Fatal("streamed envelopes merge differently from a fresh serial run")
	}

	// Replay: subscribing to the completed job delivers the whole stream
	// again, in shard-index order.
	replayed, complete2 := collect()
	if len(replayed) != 2 || complete2 == nil {
		t.Fatalf("replay delivered %d shards, complete=%v; want 2 + complete", len(replayed), complete2 != nil)
	}
	for i, sr := range replayed {
		if sr.Shard.Index != i+1 {
			t.Fatalf("replay order wrong: frame %d carries shard %d", i, sr.Shard.Index)
		}
	}
}

// TestSubmitSweepIdempotent: resubmitting an identical sweep returns the
// existing job instead of forking a duplicate.
func TestSubmitSweepIdempotent(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx := context.Background()
	first, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Created || second.Created || first.Job.ID != second.Job.ID {
		t.Fatalf("idempotency broken: first %+v, second %+v", first, second)
	}
	jobs, err := api.Sweeps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("queue holds %d jobs after a resubmission, want 1", len(jobs))
	}
	// A different partition of the same sweep is a different job.
	third, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Created || third.Job.ID == first.Job.ID {
		t.Fatalf("3-shard resubmission not a new job: %+v", third)
	}
}

// TestAutoShards pins the -shards auto sizing: a few shards per known
// worker, widened when observed shard latency exceeds the target,
// clamped to the cap and the job's scenario count.
func TestAutoShards(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	if got := svc.autoShardsLocked(1000); got != autoShardPerWorker {
		t.Errorf("no workers, no history: %d shards, want %d", got, autoShardPerWorker)
	}
	svc.workers["a"] = &workerInfo{}
	svc.workers["b"] = &workerInfo{}
	if got := svc.autoShardsLocked(1000); got != 2*autoShardPerWorker {
		t.Errorf("two workers: %d shards, want %d", got, 2*autoShardPerWorker)
	}
	// Observed shards averaging 60s against the 10s target widen the
	// partition 6x.
	svc.shardLatSum, svc.shardLatN = 120, 2
	if got := svc.autoShardsLocked(1000); got != 48 {
		t.Errorf("60s mean latency: %d shards, want 48", got)
	}
	// Never more shards than scenarios, never more than the cap.
	if got := svc.autoShardsLocked(12); got != 12 {
		t.Errorf("12-scenario job: %d shards, want 12", got)
	}
	svc.shardLatSum = 1e6
	if got := svc.autoShardsLocked(100000); got != autoShardMax {
		t.Errorf("huge latency: %d shards, want the %d cap", got, autoShardMax)
	}
	svc.mu.Unlock()

	// Through the API: Shards 0 means auto.
	auto, err := loopbackAPI(svc).CreateSweep(context.Background(), SweepRequest{Spec: quickSpec(t), Shards: 0, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Job.Shards != 12 {
		t.Fatalf("auto-sharded quick sweep got %d shards, want 12 (scenario clamp)", auto.Job.Shards)
	}
}

// TestLegacyAndV1Surfaces pins both wire surfaces against one
// coordinator: the legacy query-param routes and the /v1 resource
// routes interoperate on the same job, shard by shard.
func TestLegacyAndV1Surfaces(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	coord, err := NewCoordinator(plan, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)
	api := loopbackAPI(coord)
	ctx := context.Background()
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond}

	// Shard 1 over the legacy surface.
	legacyLease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "legacy"})
	if legacyLease.Status != StatusLease || legacyLease.Shard.Index != 1 {
		t.Fatalf("legacy lease %+v, want shard 1/2", legacyLease)
	}
	if rr, _ := postRenew(t, client, legacyLease.LeaseID); rr == nil || !rr.Renewed {
		t.Fatalf("legacy renew refused: %+v", rr)
	}

	// Shard 2 over /v1.
	v1Lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "modern"})
	if err != nil {
		t.Fatal(err)
	}
	if v1Lease.Status != StatusLease || v1Lease.Shard.Index != 2 || v1Lease.Job != JobID(plan) {
		t.Fatalf("v1 lease %+v, want shard 2/2 of job %s", v1Lease, JobID(plan))
	}
	if rr, err := api.Renew(ctx, v1Lease.LeaseID); err != nil || !rr.Renewed {
		t.Fatalf("v1 renew = (%+v, %v), want renewed", rr, err)
	}

	// Legacy submit for shard 1 (the Worker helper's legacy path is
	// gone, so post the envelope raw).
	sr1, err := w.runShard(legacyLease)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sr1.Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://coordinator/submit?lease="+legacyLease.LeaseID, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("legacy submit answered %d", resp.StatusCode)
	}

	// v1 result for shard 2.
	sr2, err := w.runShard(v1Lease)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := api.SubmitResult(ctx, v1Lease.LeaseID, sr2)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || !ack.Done {
		t.Fatalf("v1 result ack %+v, want accepted and done", ack)
	}

	// Both surfaces agree the job is complete.
	if st := getStatus(t, client); !st.Complete || len(st.Jobs) != 1 || !st.Jobs[0].Complete {
		t.Fatalf("status after mixed-surface drain: %+v", st)
	}
	js, err := api.Sweep(ctx, JobID(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !js.Complete || js.Done != 2 {
		t.Fatalf("GET /v1/sweeps/{id} = %+v, want complete", js)
	}
	if _, err := api.Sweep(ctx, "sw-nope-1"); err == nil {
		t.Fatal("unknown sweep ID did not 404")
	}
	if got, want := mergedReport(t, coord), serialReport(t, plan); got != want {
		t.Fatal("mixed-surface merged report differs from fresh serial run")
	}
	// A sealed batch coordinator refuses new sweeps but answers the
	// existing one idempotently.
	if _, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 5}); err == nil {
		t.Fatal("sealed coordinator admitted a new sweep")
	}
	same, err := api.CreateSweep(ctx, SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if same.Created || same.Job.ID != JobID(plan) {
		t.Fatalf("sealed idempotent resubmission = %+v", same)
	}
}
