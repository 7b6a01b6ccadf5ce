package dist

import (
	"bytes"
	"context"
	"net/http"
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
	coord1 := newBatch(t, plan, CoordinatorConfig{StateDir: stateDir})
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
	// its on-disk envelope, shards 2 and 3 are still open, and submitting
	// the same sweep again lands on the recovered job.
	coord2 := newBatch(t, plan, CoordinatorConfig{StateDir: stateDir})
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
	w2 := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord2), ID: "w2", Poll: time.Millisecond, ExitOnIdle: true}
	if n, err := w2.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("worker after restart: (%d, %v), want (2, nil)", n, err)
	}
	if got := trialCounter.Value() - trials0; got != 8 {
		t.Fatalf("engine started %d trials after restart, want 8 (resumed shard re-executed?)", got)
	}
	if got, want := mergedReport(t, coord2, plan), serialReport(t, plan); got != want {
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
		lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"}, nil)
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
	if lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"}, nil); err != nil || lease.Status != StatusWait {
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
				sr, err := new(scenario.ShardReader).Read(bytes.NewReader(ev.Data))
				if err != nil {
					return err
				}
				shards = append(shards, sr)
			case EventComplete:
				var ce CompleteEvent
				if err := scenario.DecodeStrict(bytes.NewReader(ev.Data), &ce); err != nil {
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

// TestEventsReadLongFrames: a shard frame is one data line as long as
// the envelope the coordinator accepted, so the event parser takes lines
// of any length. A 17 MiB line, past the 16 MiB cap the parser once had,
// arrives whole.
func TestEventsReadLongFrames(t *testing.T) {
	t.Parallel()

	data := bytes.Repeat([]byte("0123456789abcdef"), 17<<16)
	var stream bytes.Buffer
	stream.WriteString("event: shard\nid: 1\ndata: ")
	stream.Write(data)
	stream.WriteString("\n\nevent: complete\nid: job\ndata: {}\n\n")
	frames, err := readEvents(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || frames[0].Type != EventShard || frames[1].Type != EventComplete {
		t.Fatalf("parsed %d frames, want a shard frame and a complete frame", len(frames))
	}
	if !bytes.Equal(frames[0].Data, data) {
		t.Fatalf("shard frame data is %d bytes, want the %d sent", len(frames[0].Data), len(data))
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
	var jobs []JobStatus
	if code := getJSON(t, LoopbackClient(svc), "/v1/sweeps", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("GET /v1/sweeps = %d with %d jobs after a resubmission, want 1", code, len(jobs))
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
