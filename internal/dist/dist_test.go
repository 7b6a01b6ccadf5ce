package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// fakeClock is an injectable coordinator clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// builtinPlan plans a distributed sweep of the named builtin spec.
func builtinPlan(t *testing.T, name string, shards int) Plan {
	t.Helper()
	spec, err := scenario.BuiltinSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, shards, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// serialReport runs the plan's sweep serially in-process and marshals
// stats plus summary — the byte-identity reference for merged output.
func serialReport(t *testing.T, plan Plan) string {
	t.Helper()
	m, err := scenario.NewMatrix(plan.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var stats []*scenario.Stats
	sum, err := m.Sweep(plan.Selection(m), scenario.SweepConfig{
		Seeds:    plan.Seeds,
		Window:   plan.Window,
		BaseSeed: plan.BaseSeed,
		OnStats:  func(st *scenario.Stats) error { stats = append(stats, st); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return marshalReport(t, stats, sum)
}

func marshalReport(t *testing.T, stats []*scenario.Stats, sum *scenario.Summary) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Stats   []*scenario.Stats
		Summary *scenario.Summary
	}{stats, sum})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mergedReport(t *testing.T, coord *Coordinator) string {
	t.Helper()
	stats, sum, err := coord.Merged()
	if err != nil {
		t.Fatal(err)
	}
	return marshalReport(t, stats, sum)
}

// postLease sends one raw lease request through the loopback client.
func postLease(t *testing.T, client *http.Client, req LeaseRequest) (*LeaseResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://coordinator/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var lease LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	return &lease, resp
}

// TestDistributedByteIdentical is the tentpole acceptance criterion: a
// coordinator plus two concurrent workers sweeping the 288-scenario
// builtin matrix over the loopback protocol produce a merged report
// byte-identical to a fresh serial run.
func TestDistributedByteIdentical(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "default", 3)
	coord, err := NewCoordinator(plan, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	done := make([]int, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{
				Coordinator: "http://coordinator",
				Client:      client,
				ID:          fmt.Sprintf("w%d", i),
				Poll:        time.Millisecond,
			}
			done[i], errs[i] = w.Run(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if done[0]+done[1] != 3 {
		t.Fatalf("workers completed %d+%d shards, want 3 total", done[0], done[1])
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Both workers exited through StatusDone, so the coordinator is
	// already drained: safe to tear the listener down.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := coord.WaitDrained(drainCtx); err != nil {
		t.Fatalf("workers exited but coordinator not drained: %v", err)
	}
	if got, want := mergedReport(t, coord), serialReport(t, plan); got != want {
		t.Fatal("distributed merged report differs from fresh serial run")
	}
	if n := coord.Workers(); n != 2 {
		t.Fatalf("coordinator saw %d workers, want 2", n)
	}
}

// TestCrashedWorkerReLease pins the retry path: a worker leases a shard
// and vanishes; after the lease TTL the coordinator re-issues the shard,
// a healthy worker drains the sweep, and the merged report is still
// byte-identical to a serial run. A straggler submit under the dead lease
// is then acknowledged idempotently.
func TestCrashedWorkerReLease(t *testing.T) {
	t.Parallel()

	clock := newFakeClock()
	plan := builtinPlan(t, "default", 3)
	coord, err := NewCoordinator(plan, CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)

	// The doomed worker takes shard 1/3 and never comes back.
	dead, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "doomed"})
	if dead.Status != StatusLease || dead.Shard.Index != 1 {
		t.Fatalf("doomed worker leased %+v, want shard 1/3", dead)
	}

	// Before the TTL passes, the shard must NOT be re-issued: a healthy
	// worker gets shards 2 and 3, then is told to wait.
	w := &Worker{Coordinator: "http://coordinator", Client: client, ID: "healthy", Poll: time.Millisecond}
	for _, want := range []int{2, 3} {
		lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "healthy"})
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
	if lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "healthy"}); lease.Status != StatusWait {
		t.Fatalf("live lease was re-issued before its TTL: %+v", lease)
	}

	// Past the TTL the shard comes back, and the healthy worker finishes
	// the sweep.
	clock.Advance(time.Minute + time.Second)
	n, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("healthy worker completed %d shards after re-lease, want 1", n)
	}
	if got, want := mergedReport(t, coord), serialReport(t, plan); got != want {
		t.Fatal("merged report after crash/re-lease differs from fresh serial run")
	}

	// The doomed worker finally finishes and submits under its expired
	// lease: deterministic bytes, so the coordinator just acknowledges.
	sr, err := w.runShard(dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), dead.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatalf("straggler submit under expired lease rejected: %v", err)
	}
	if got, want := mergedReport(t, coord), serialReport(t, plan); got != want {
		t.Fatal("straggler resubmission changed the merged report")
	}
	if n := coord.Workers(); n != 2 {
		t.Fatalf("coordinator saw %d workers, want 2 (doomed + healthy)", n)
	}
}

// TestStragglerSubmitBeforeReLease: an expired lease whose shard nobody
// re-claimed yet still lands its result.
func TestStragglerSubmitBeforeReLease(t *testing.T) {
	t.Parallel()

	clock := newFakeClock()
	plan := builtinPlan(t, "quick", 1)
	coord, err := NewCoordinator(plan, CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond}
	lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "slow"})
	clock.Advance(2 * time.Minute)
	sr, err := w.runShard(lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatalf("submit under expired-but-unreclaimed lease rejected: %v", err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// postRenew sends one raw renew request through the loopback client.
func postRenew(t *testing.T, client *http.Client, leaseID string) (*RenewResponse, *http.Response) {
	t.Helper()
	resp, err := client.Post("http://coordinator/renew?lease="+leaseID, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var rr RenewResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return &rr, resp
}

// TestLeaseRenewal pins the renewal protocol: a renewed lease is not
// re-issued past its original TTL (slow shards are not treated as
// crashes), a lapsed-then-re-issued lease refuses further renewals, and
// a submitted shard's lease refuses them too.
func TestLeaseRenewal(t *testing.T) {
	t.Parallel()

	clock := newFakeClock()
	plan := builtinPlan(t, "quick", 1)
	coord, err := NewCoordinator(plan, CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond}

	slow, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "slow"})
	if slow.Status != StatusLease || slow.TTLMs != time.Minute.Milliseconds() {
		t.Fatalf("lease response %+v", slow)
	}

	// Renew at t=50s: the lease now runs to t=110s.
	clock.Advance(50 * time.Second)
	if rr, _ := postRenew(t, client, slow.LeaseID); rr == nil || !rr.Renewed {
		t.Fatalf("live lease renewal refused: %+v", rr)
	}
	// At t=100s — past the original expiry, inside the renewed one — the
	// shard must NOT be re-issued.
	clock.Advance(50 * time.Second)
	if lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "vulture"}); lease.Status != StatusWait {
		t.Fatalf("renewed lease was re-issued: %+v", lease)
	}
	// At t=120s the renewed lease has lapsed: re-issued, and the old
	// lease can no longer renew.
	clock.Advance(20 * time.Second)
	release, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "vulture"})
	if release.Status != StatusLease || release.Shard.Index != 1 {
		t.Fatalf("lapsed lease not re-issued: %+v", release)
	}
	if rr, _ := postRenew(t, client, slow.LeaseID); rr == nil || rr.Renewed {
		t.Fatalf("superseded lease renewed: %+v", rr)
	}

	// A submitted shard's lease refuses renewal, and unknown leases 404.
	sr, err := w.runShard(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), release.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rr, _ := postRenew(t, client, release.LeaseID); rr == nil || rr.Renewed {
		t.Fatalf("completed shard's lease renewed: %+v", rr)
	}
	if rr, resp := postRenew(t, client, "lease-999"); rr != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lease renewal answered %d, want 404", resp.StatusCode)
	}
}

// TestSampledPlanDistributes checks the sample selection survives the
// plan round trip: a distributed sweep of a sampled selection matches the
// serial sampled sweep.
func TestSampledPlanDistributes(t *testing.T) {
	t.Parallel()

	spec, err := scenario.BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, 2, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(plan, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord), Poll: time.Millisecond}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := mergedReport(t, coord), serialReport(t, plan); got != want {
		t.Fatal("distributed sampled sweep differs from serial sampled run")
	}
}

// TestSharedCacheAcrossWorkers: two workers pointed at one store — the
// second sweep of the same scenarios executes zero trials and the output
// is unchanged.
func TestSharedCacheAcrossWorkers(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	cache, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Coordinator, string) {
		plan := builtinPlan(t, "quick", 2)
		coord, err := NewCoordinator(plan, CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord), Cache: cache,
			Poll: time.Millisecond, Events: obs.NewLogger(&log, obs.LevelDebug)}
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return coord, log.String()
	}
	cold, coldLog := run()
	warm, warmLog := run()
	if got, want := mergedReport(t, warm), mergedReport(t, cold); got != want {
		t.Fatal("warm-cache distributed run differs from cold run")
	}
	// The quick spec is 12 scenarios over 2 shards: the cold run executes
	// 6 trials per shard, the warm run serves every scenario from the
	// shared store and executes none. The worker's shard.done events
	// carry that accounting.
	if strings.Count(coldLog, "event=shard.done") != 2 || strings.Count(coldLog, "executed=6") != 2 {
		t.Fatalf("cold run accounting wrong:\n%s", coldLog)
	}
	if strings.Count(warmLog, "executed=0") != 2 {
		t.Fatalf("warm run did not serve from the shared cache:\n%s", warmLog)
	}
}

// TestSubmitValidation pins the coordinator's envelope checks: unknown
// leases, foreign fingerprints and mismatched shard coordinates are
// refused before anything reaches MergeShards.
func TestSubmitValidation(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	coord, err := NewCoordinator(plan, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond}
	lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	sr, err := w.runShard(lease)
	if err != nil {
		t.Fatal(err)
	}

	submit := func(leaseID string, sr *scenario.ShardResult) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		if err := sr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post("http://coordinator/submit?lease="+leaseID, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := submit("lease-999", sr); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lease answered %d, want 404", resp.StatusCode)
	}
	tampered := *sr
	tampered.Fingerprint = "deadbeefdeadbeef"
	if resp := submit(lease.LeaseID, &tampered); resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign fingerprint answered %d, want 409", resp.StatusCode)
	}
	wrongShard := *sr
	wrongShard.Shard = scenario.Shard{Index: 2, Count: 2}
	if resp := submit(lease.LeaseID, &wrongShard); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched shard coordinates answered %d, want 409", resp.StatusCode)
	}
	if resp := submit(lease.LeaseID, sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid submit answered %d", resp.StatusCode)
	}
}

// TestLeaseProtocolVersion: a worker speaking another protocol version is
// turned away at the door.
func TestLeaseProtocolVersion(t *testing.T) {
	t.Parallel()

	coord, err := NewCoordinator(builtinPlan(t, "quick", 1), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lease, resp := postLease(t, LoopbackClient(coord), LeaseRequest{Protocol: 99, Worker: "future"})
	if lease != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("protocol 99 lease answered %d, want 400", resp.StatusCode)
	}
}

// TestWorkerRefusesSkewedPlan: the worker recomputes the fingerprint
// locally and refuses a plan whose fingerprint disagrees — the
// coordinator/worker version-skew guard.
func TestWorkerRefusesSkewedPlan(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 1)
	plan.Fingerprint = "0123456789abcdef" // a different build's digest
	w := &Worker{}
	_, err := w.runShard(&LeaseResponse{
		Protocol: ProtocolVersion,
		Status:   StatusLease,
		LeaseID:  "lease-1",
		Shard:    scenario.Shard{Index: 1, Count: 1},
		Plan:     &plan,
	})
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("skewed plan accepted: %v", err)
	}
}

// TestStatusEndpoint tracks a shard through pending -> leased -> done.
func TestStatusEndpoint(t *testing.T) {
	t.Parallel()

	coord, err := NewCoordinator(builtinPlan(t, "quick", 2), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client := LoopbackClient(coord)
	status := func() StatusResponse {
		t.Helper()
		resp, err := client.Get("http://coordinator/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := status(); st.Pending != 2 || st.Done != 0 || st.Complete {
		t.Fatalf("initial status %+v", st)
	}
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond}
	lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if st := status(); st.Pending != 1 || st.Leased != 1 || st.Workers != 1 {
		t.Fatalf("status after lease %+v", st)
	}
	sr, err := w.runShard(lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := status(); st.Done != 1 || st.Complete {
		t.Fatalf("status after one submit %+v", st)
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := status(); st.Done != 2 || !st.Complete {
		t.Fatalf("final status %+v", st)
	}
}

// TestMergedRefusesIncomplete: asking for the merged report before every
// shard landed is an error naming the missing count.
func TestMergedRefusesIncomplete(t *testing.T) {
	t.Parallel()

	coord, err := NewCoordinator(builtinPlan(t, "quick", 3), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Merged(); err == nil || !strings.Contains(err.Error(), "3 of 3") {
		t.Fatalf("incomplete merge: %v", err)
	}
}

// TestNewPlanValidates rejects nonsense shard counts and bad specs.
func TestNewPlanValidates(t *testing.T) {
	t.Parallel()

	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(spec, "v", scenario.SweepConfig{}, 0, 0, 0); err == nil {
		t.Fatal("0-shard plan accepted")
	}
	if _, err := NewPlan(&scenario.Spec{}, "v", scenario.SweepConfig{}, 1, 0, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// Overrides flow into the effective parameters and the fingerprint.
	a, err := NewPlan(spec, "v", scenario.SweepConfig{}, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(spec, "v", scenario.SweepConfig{Seeds: 7}, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("seeds override did not change the plan fingerprint")
	}
	if b.Seeds != 7 {
		t.Fatalf("plan seeds %d, want 7", b.Seeds)
	}
}
