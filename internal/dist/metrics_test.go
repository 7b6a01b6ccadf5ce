package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsAcrossWorkerCrash drives a 2-worker sweep with an injected
// worker crash through the loopback harness and asserts the /metrics
// counters and /status progress tell the incident's story: one lease
// expired and was re-issued, exactly one envelope per shard was
// accepted, the straggler's late submit was counted as a duplicate, a
// bogus-lease submit was counted as rejected, and progress reached
// 100%. Deliberately not parallel: it asserts deltas of process-global
// counters.
func TestMetricsAcrossWorkerCrash(t *testing.T) {
	clock := newFakeClock()
	plan := builtinPlan(t, "quick", 3)
	jobID := JobID(plan)
	granted0 := mLeasesGranted.With(jobID).Value()
	expired0 := mLeasesExpired.With(jobID).Value()
	accepted0 := mSubmitsAccepted.With(jobID).Value()
	duplicate0 := mSubmitsDuplicate.With(jobID).Value()
	rejectedUnknown0 := mSubmitsRejected.With("unknown_lease").Value()
	shards0 := mWorkerShards.Value()

	var events bytes.Buffer
	coord := newBatch(t, plan, CoordinatorConfig{
		LeaseTTL: time.Minute,
		Now:      clock.Now,
		Events:   obs.NewLogger(&events, obs.LevelDebug),
	})
	client := LoopbackClient(coord)

	// Worker "doomed" takes shard 1/3 and crashes (never submits).
	dead, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "doomed", Parallel: 1})
	if dead.Status != StatusLease || dead.Shard.Index != 1 {
		t.Fatalf("doomed worker leased %+v, want shard 1/3", dead)
	}

	// Worker "healthy" drains shards 2 and 3, then mid-sweep progress is
	// visible on /status.
	w := &Worker{Coordinator: "http://coordinator", Client: client, ID: "healthy", Parallel: 1, Poll: time.Millisecond, ExitOnIdle: true}
	for _, want := range []int{2, 3} {
		lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "healthy", Parallel: 1})
		if lease.Status != StatusLease || lease.Shard.Index != want {
			t.Fatalf("healthy worker leased %+v, want shard %d/3", lease, want)
		}
		sr, err := w.runShard(lease)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if st := getStatus(t, client); st.Jobs[0].Progress <= 0.6 || st.Jobs[0].Progress >= 0.7 {
		t.Fatalf("mid-sweep progress = %v, want 2/3", st.Jobs[0].Progress)
	}

	// Past the TTL the crashed shard is re-issued and the healthy worker
	// finishes the sweep.
	clock.Advance(time.Minute + time.Second)
	if n, err := w.Run(context.Background()); err != nil || n != 1 {
		t.Fatalf("healthy worker after re-lease: (%d, %v), want (1, nil)", n, err)
	}

	// The straggler finally submits under its expired lease: acknowledged
	// idempotently, counted as a duplicate.
	sr, err := w.runShard(dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), dead.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A submit under a lease that never existed is refused and counted.
	var buf bytes.Buffer
	if err := sr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://coordinator/v1/leases/lease-999/result", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus-lease submit answered %d, want 404", resp.StatusCode)
	}

	// Counter deltas: 4 grants (3 shards + 1 re-issue), 1 expiry, one
	// accepted envelope per shard, 1 duplicate, 1 rejection, 3 shards
	// executed by this process's workers (the doomed "worker" never ran
	// Worker.Run, so its straggler shard counts under runShard's caller).
	if got := mLeasesGranted.With(jobID).Value() - granted0; got != 4 {
		t.Errorf("leases granted delta = %d, want 4", got)
	}
	if got := mLeasesExpired.With(jobID).Value() - expired0; got != 1 {
		t.Errorf("leases expired (re-issued) delta = %d, want 1", got)
	}
	if got := mSubmitsAccepted.With(jobID).Value() - accepted0; got != int64(plan.Shards) {
		t.Errorf("submits accepted delta = %d, want %d (shard count)", got, plan.Shards)
	}
	if got := mSubmitsDuplicate.With(jobID).Value() - duplicate0; got != 1 {
		t.Errorf("duplicate straggler submits delta = %d, want 1", got)
	}
	if got := mSubmitsRejected.With("unknown_lease").Value() - rejectedUnknown0; got != 1 {
		t.Errorf("rejected submits delta = %d, want 1", got)
	}
	if got := mWorkerShards.Value() - shards0; got != 1 {
		t.Errorf("worker shards completed delta = %d, want 1 (only Run-driven shards count)", got)
	}

	// /status: progress reached 100%, every shard done, both workers
	// accounted with their submit counts.
	st := getStatus(t, client)
	if js := st.Jobs[0]; js.Progress != 1 || !st.Complete || js.Done != 3 {
		t.Fatalf("final status = %+v, want progress 1 / complete / 3 done", st)
	}
	for _, ss := range st.Jobs[0].ShardStates {
		if ss.State != "done" {
			t.Errorf("shard %s state %q, want done", ss.Shard, ss.State)
		}
	}
	if len(st.WorkerStates) != 2 {
		t.Fatalf("status lists %d workers, want 2", len(st.WorkerStates))
	}
	if st.WorkerStates[0].ID != "doomed" || st.WorkerStates[1].ID != "healthy" {
		t.Fatalf("worker states not sorted by ID: %+v", st.WorkerStates)
	}
	if st.WorkerStates[1].Submitted != 3 {
		t.Errorf("healthy worker submitted %d, want 3", st.WorkerStates[1].Submitted)
	}

	// /metrics: the coordinator mux serves the Prometheus exposition with
	// families from every layer (engine and sweep ran in-process here).
	mresp, err := client.Get("http://coordinator/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content-type %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, fam := range []string{
		"# TYPE goalsweep_engine_trials_started_total counter",
		"# TYPE goalsweep_engine_rounds_total counter",
		"# TYPE goalsweep_sweep_scenarios_total counter",
		"# TYPE goalsweep_sweep_chunk_seconds histogram",
		"# TYPE goalsweep_cache_hits_total counter",
		"# TYPE goalsweep_coord_leases_granted_total counter",
		"# TYPE goalsweep_coord_leases_expired_total counter",
		"# TYPE goalsweep_coord_submits_rejected_total counter",
		"# TYPE goalsweep_coord_worker_last_seen_timestamp_seconds gauge",
		"# TYPE goalsweep_worker_shards_completed_total counter",
		"# TYPE goalsweep_worker_compute_seconds histogram",
		`goalsweep_coord_submits_rejected_total{reason="unknown_lease"}`,
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}

	// The event log reconstructs the incident by lease ID.
	log := events.String()
	for _, want := range []string{
		"event=lease.grant", "event=lease.expire lease=lease-1",
		"event=submit.accept", "event=submit.duplicate", "event=submit.reject reason=unknown_lease",
		"event=sweep.complete",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q in:\n%s", want, log)
		}
	}
}

// getStatus fetches and decodes /status through the loopback client.
func getStatus(t *testing.T, client *http.Client) StatusResponse {
	t.Helper()
	var st StatusResponse
	if code := getJSON(t, client, "/status", &st); code != http.StatusOK {
		t.Fatalf("GET /status = %d", code)
	}
	return st
}
