package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

// mergedReport marshals the plan's merged job from the coordinator.
func mergedReport(t *testing.T, coord *Coordinator, plan Plan) string {
	t.Helper()
	stats, sum, err := coord.JobMerged(JobID(plan))
	if err != nil {
		t.Fatal(err)
	}
	return marshalReport(t, stats, sum)
}

// newBatch builds a service and submits the plan's sweep over the
// loopback client — the request `goalsweep submit` sends.
func newBatch(t *testing.T, plan Plan, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	coord, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := loopbackAPI(coord).CreateSweep(context.Background(), SweepRequest{
		Spec: plan.Spec, Shards: plan.Shards, Seeds: plan.Seeds, Window: plan.Window,
		BaseSeed: plan.BaseSeed, SampleN: plan.SampleN, SampleSeed: plan.SampleSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.ID != JobID(plan) {
		t.Fatalf("submitted sweep became job %s, want %s", resp.Job.ID, JobID(plan))
	}
	return coord
}

// getJSON GETs path through the loopback client and decodes a 200 body
// into v; it returns the status code.
func getJSON(t *testing.T, client *http.Client, path string, v any) int {
	t.Helper()
	resp, err := client.Get("http://coordinator" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// postLease sends one raw job-agnostic lease request through the
// loopback client.
func postLease(t *testing.T, client *http.Client, req LeaseRequest) (*LeaseResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://coordinator/v1/leases", "application/json", bytes.NewReader(body))
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
// byte-identical to a fresh serial run. The workers exit once the queue
// reports idle, as `goalsweep work -exit-when-idle` does.
func TestDistributedByteIdentical(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "default", 3)
	coord := newBatch(t, plan, CoordinatorConfig{})
	client := LoopbackClient(coord)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

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
				ExitOnIdle:  true,
			}
			done[i], errs[i] = w.Run(ctx)
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
	if got, want := mergedReport(t, coord, plan), serialReport(t, plan); got != want {
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
	coord := newBatch(t, plan, CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
	client := LoopbackClient(coord)

	// The doomed worker takes shard 1/3 and never comes back.
	dead, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "doomed"})
	if dead.Status != StatusLease || dead.Shard.Index != 1 {
		t.Fatalf("doomed worker leased %+v, want shard 1/3", dead)
	}

	// Before the TTL passes, the shard must NOT be re-issued: a healthy
	// worker gets shards 2 and 3, then is told to wait.
	w := &Worker{Coordinator: "http://coordinator", Client: client, ID: "healthy", Poll: time.Millisecond, ExitOnIdle: true}
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
	if got, want := mergedReport(t, coord, plan), serialReport(t, plan); got != want {
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
	if got, want := mergedReport(t, coord, plan), serialReport(t, plan); got != want {
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
	coord := newBatch(t, plan, CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
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
	if err := coord.WaitJob(context.Background(), JobID(plan)); err != nil {
		t.Fatal(err)
	}
}

// postRenew sends one raw renew request through the loopback client.
func postRenew(t *testing.T, client *http.Client, leaseID string) (*RenewResponse, *http.Response) {
	t.Helper()
	resp, err := client.Post("http://coordinator/v1/leases/"+leaseID+"/renew", "application/json", nil)
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
	coord := newBatch(t, builtinPlan(t, "quick", 1), CoordinatorConfig{LeaseTTL: time.Minute, Now: clock.Now})
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
	coord := newBatch(t, plan, CoordinatorConfig{})
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord), Poll: time.Millisecond, ExitOnIdle: true}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := mergedReport(t, coord, plan), serialReport(t, plan); got != want {
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
	plan := builtinPlan(t, "quick", 2)
	run := func() (*Coordinator, string) {
		coord := newBatch(t, plan, CoordinatorConfig{})
		var log bytes.Buffer
		w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord), Cache: cache,
			Poll: time.Millisecond, ExitOnIdle: true, Events: obs.NewLogger(&log, obs.LevelDebug)}
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return coord, log.String()
	}
	cold, coldLog := run()
	warm, warmLog := run()
	if got, want := mergedReport(t, warm, plan), mergedReport(t, cold, plan); got != want {
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
// leases, foreign fingerprints, mismatched shard coordinates, uploads
// that carry a spec of their own and envelopes whose framing fails once
// the plan's spec is attached are refused before anything reaches
// MergeShards, and a refused upload leaves its shard open.
func TestSubmitValidation(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	coord := newBatch(t, plan, CoordinatorConfig{})
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
		resp, err := client.Post("http://coordinator/v1/leases/"+leaseID+"/result", "application/json", &buf)
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
	if sr.Spec != nil {
		t.Fatal("the worker's upload carries a spec")
	}
	rejected := mSubmitsRejected.With("spec")
	rejected0 := rejected.Value()
	withSpec := *sr
	withSpec.Spec = plan.Spec // even the plan's own: the coordinator attaches it
	if resp := submit(lease.LeaseID, &withSpec); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("upload carrying a spec answered %d, want 422", resp.StatusCode)
	}
	if rejected.Value() == rejected0 {
		t.Fatal("upload carrying a spec not counted as rejected")
	}
	noSummary := *sr
	noSummary.Summary = nil
	if resp := submit(lease.LeaseID, &noSummary); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("envelope without a summary answered %d, want 422", resp.StatusCode)
	}
	if js := coord.Jobs()[0]; js.Done != 0 || js.Leased != 1 {
		t.Fatalf("refused uploads changed the shard states: %+v", js)
	}
	if resp := submit(lease.LeaseID, sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid submit answered %d", resp.StatusCode)
	}
	if js := coord.Jobs()[0]; js.Done != 1 {
		t.Fatalf("valid submit left the shard open: %+v", js)
	}
}

// TestStoredEnvelopesCarryPlanSpec: every envelope the coordinator keeps
// names the spec its job was planned with, whatever an upload or a state
// file claims. A forged spec is refused, and the persisted shard-N.json,
// the SSE shard frames (published live and replayed) and JobMerged's
// summary all carry the plan's spec: each file's bytes are its frames'
// data, json.Marshal of the envelope with the plan's spec. Shard 1 is
// uploaded compact, as workers send it, which the coordinator reads in
// one pass and records as its own bytes with the spec spliced in; shard
// 2 is uploaded indented, which it decodes strictly and encodes again. A
// coordinator restarted over the state dir replays the same bytes, also
// after a state file's spec was edited.
func TestStoredEnvelopesCarryPlanSpec(t *testing.T) {
	t.Parallel()

	stateDir := t.TempDir()
	plan := builtinPlan(t, "quick", 2)
	coord := newBatch(t, plan, CoordinatorConfig{StateDir: stateDir})
	client := LoopbackClient(coord)
	j, err := coord.jobByID(JobID(plan))
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe as handleEvents does before anything lands, so every
	// shard frame is published live; completion closes the channel.
	live := make(chan []byte, plan.Shards+1)
	coord.mu.Lock()
	j.subs = append(j.subs, live)
	coord.mu.Unlock()

	forged := quickSpec(t)
	forged.Name = "forged"
	w := &Worker{Coordinator: "http://coordinator", Client: client}
	want := make(map[int]*scenario.ShardResult)
	for idx := 1; idx <= plan.Shards; idx++ {
		lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
		sr, err := w.runShard(lease)
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range []struct {
			spec *scenario.Spec
			ok   bool
		}{{forged, false}, {nil, true}} {
			body := *sr
			body.Spec = up.spec
			var buf bytes.Buffer
			if idx == 1 {
				compact, err := json.Marshal(&body)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(compact)
			} else if err := body.Write(&buf); err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post("http://coordinator/v1/leases/"+lease.LeaseID+"/result", "application/json", &buf)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ok := resp.StatusCode == http.StatusOK; ok != up.ok {
				t.Fatalf("shard %d: upload with spec %v answered %d", idx, up.spec != nil, resp.StatusCode)
			}
		}
		full := *sr
		full.Spec = plan.Spec
		want[idx] = &full
	}
	var stream []byte
	for frame := range live {
		stream = append(stream, frame...)
	}
	liveEvents, err := readEvents(stream)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []SweepEvent
	if err := loopbackAPI(coord).Events(context.Background(), j.id, func(ev SweepEvent) error {
		replayed = append(replayed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	shardPath := func(idx int) string { return filepath.Join(stateDir, j.id, shardFile(idx)) }
	for idx, full := range want {
		encoded, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(shardPath(idx))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, encoded) {
			t.Fatalf("persisted shard %d is not the compact full envelope with the plan's spec:\n%.300s", idx, got)
		}
		for _, events := range [][]SweepEvent{liveEvents, replayed} {
			if len(events) != plan.Shards+1 {
				t.Fatalf("stream carries %d frames, want %d shards + complete", len(events), plan.Shards)
			}
			if ev := events[idx-1]; ev.ID != strconv.Itoa(idx) || !bytes.Equal(ev.Data, got) {
				t.Fatalf("SSE frame %s is not shard %d's state file:\n%.300s", ev.ID, idx, ev.Data)
			}
		}
	}
	mergedSpec := func(c *Coordinator) string {
		t.Helper()
		_, sum, err := c.JobMerged(j.id)
		if err != nil {
			t.Fatal(err)
		}
		return sum.Spec
	}
	if got := mergedSpec(coord); got != plan.Spec.Name {
		t.Fatalf("merged summary names spec %q, want the plan's %q", got, plan.Spec.Name)
	}

	restart := func(stage string) *Coordinator {
		t.Helper()
		c, err := NewService(CoordinatorConfig{StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		var events []SweepEvent
		if err := loopbackAPI(c).Events(context.Background(), j.id, func(ev SweepEvent) error {
			events = append(events, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(events, replayed) {
			t.Fatalf("%s: the restarted coordinator replays other frames than the first one", stage)
		}
		return c
	}
	restart("intact state")

	// A state file naming another spec resumes with the plan's, and its
	// file is rewritten to the envelope's encoding.
	intact, err := os.ReadFile(shardPath(1))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(intact, []byte(`"spec":{"name":"quick"`), []byte(`"spec":{"name":"forged"`), 1)
	if bytes.Equal(edited, intact) {
		t.Fatal("shard 1's state file does not name the quick spec")
	}
	if err := os.WriteFile(shardPath(1), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mergedSpec(restart("edited spec")); got != plan.Spec.Name {
		t.Fatalf("a coordinator resumed from an edited state file merges spec %q, want the plan's %q", got, plan.Spec.Name)
	}
	if got, err := os.ReadFile(shardPath(1)); err != nil || !bytes.Equal(got, intact) {
		t.Fatalf("the edited state file was not rewritten (%v):\n%.300s", err, got)
	}
}

// TestLeaseAnswersMatchEncoder: every lease answer the coordinator writes
// — two grants, wait, a speculative grant, done and idle — is byte for
// byte what json.NewEncoder(w).Encode writes for the response it decodes
// to, though a grant's plan is copied from the bytes its job encoded
// once. It holds with a lease TTL of whole milliseconds and with one that
// rounds to 0 ms, whose ttlMs member is omitted, and with a spec name
// holding characters the encoder escapes.
func TestLeaseAnswersMatchEncoder(t *testing.T) {
	t.Parallel()

	spec := quickSpec(t)
	spec.Name = "quick <&> \u00e9"
	plan, err := NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ttl := range []time.Duration{time.Minute, time.Microsecond} {
		clock := newFakeClock()
		coord := newBatch(t, plan, CoordinatorConfig{LeaseTTL: ttl, Now: clock.Now, SpeculateAfter: time.Nanosecond})
		client := LoopbackClient(coord)
		lease := func(path, worker, status string) *LeaseResponse {
			t.Helper()
			req, err := json.Marshal(LeaseRequest{Protocol: ProtocolVersion, Worker: worker})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post("http://coordinator"+path, "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			answer, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var lr LeaseResponse
			if err := json.Unmarshal(answer, &lr); err != nil {
				t.Fatalf("ttl %v: %s answer %q: %v", ttl, status, answer, err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(lr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answer, want.Bytes()) {
				t.Errorf("ttl %v: %s answer is\n%.300s\nthe encoder writes\n%.300s", ttl, status, answer, want.Bytes())
			}
			if lr.Status != status || (status == StatusLease && (lr.Plan == nil || lr.TTLMs != ttl.Milliseconds())) {
				t.Fatalf("ttl %v: answer %+v, want status %s", ttl, lr, status)
			}
			return &lr
		}
		w := &Worker{Coordinator: "http://coordinator", Client: client}
		grants := []*LeaseResponse{lease("/v1/leases", "a", StatusLease), lease("/v1/leases", "a", StatusLease)}
		lease("/v1/leases", "a", StatusWait)
		clock.Advance(10 * time.Nanosecond)
		lease("/v1/leases", "b", StatusLease)
		for _, g := range grants {
			sr, err := w.runShard(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loopbackAPI(coord).SubmitResult(context.Background(), g.LeaseID, sr); err != nil {
				t.Fatal(err)
			}
		}
		lease("/v1/sweeps/"+JobID(plan)+"/leases", "a", StatusDone)
		lease("/v1/leases", "a", StatusIdle)
	}
}

// TestLeaseProtocolVersion: a worker speaking another protocol version is
// turned away at the door.
func TestLeaseProtocolVersion(t *testing.T) {
	t.Parallel()

	coord := newBatch(t, builtinPlan(t, "quick", 1), CoordinatorConfig{})
	client := LoopbackClient(coord)
	// Protocol 1 uploaded envelopes with their spec; such a worker is
	// refused at its first lease, before it computes a shard.
	for _, version := range []int{1, 99} {
		lease, resp := postLease(t, client, LeaseRequest{Protocol: version, Worker: "other"})
		if lease != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("protocol %d lease answered %d, want 400", version, resp.StatusCode)
		}
	}
	if js := coord.Jobs()[0]; js.Leased != 0 || js.Pending != 1 {
		t.Fatalf("a refused worker holds a lease: %+v", js)
	}
}

// TestV1RequestsDecodeStrictly: POST /v1/sweeps and POST /v1/leases read
// exactly one JSON value with no unknown fields, as spec files, result
// uploads and the state dir do. A misspelt field or trailing data is a
// 400 that leaves the queue and the leases as they were, not a request
// quietly read as something else.
func TestV1RequestsDecodeStrictly(t *testing.T) {
	t.Parallel()

	coord := newBatch(t, builtinPlan(t, "quick", 2), CoordinatorConfig{Now: newFakeClock().Now})
	client := LoopbackClient(coord)
	const spec = `{"name":"t","axes":[{"name":"goal","values":["treasure"]}]`
	for _, tc := range []struct {
		name, path, body string
	}{
		{"misspelt spec field", "/v1/sweeps", `{"protocol":2,"spec":` + spec + `,"windw":5},"shards":1}`},
		{"misspelt request field", "/v1/sweeps", `{"protocol":2,"spec":` + spec + `},"shard":3}`},
		{"sweep with trailing value", "/v1/sweeps", `{"protocol":2,"spec":` + spec + `},"shards":1}{"x":1}`},
		{"lease with trailing data", "/v1/leases", `{"protocol":2,"worker":"w"} trailing`},
		{"misspelt lease field", "/v1/leases", `{"protocol":2,"wroker":"w"}`},
	} {
		before := coord.Jobs()
		resp, err := client.Post("http://coordinator"+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST %s answered %d, want 400", tc.name, tc.path, resp.StatusCode)
		}
		if after := coord.Jobs(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the queue changed:\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
	}
	coord.mu.Lock()
	leases := len(coord.leases)
	coord.mu.Unlock()
	if leases != 0 {
		t.Fatalf("refused requests left %d leases", leases)
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

// TestWorkerMemoKeepsSkewCheck: the worker's memo of its last prepared
// plan never stands in for the skew check. The worker leases from a stub
// coordinator answering canned lease bodies. After it has run a shard of
// a valid plan, a lease carrying the same plan bytes hands back the
// prepared plan itself, undecoded, and reuses its matrix. A lease of the
// same spec under another fingerprint, or of the spec with one value
// changed under the old fingerprint, is decoded and refused as skew
// before any trial runs; the prepared plan's bytes still reuse the
// matrix after those refusals, until the worker's registry version
// changes. Not parallel: it reads the process-global engine trial
// counter.
func TestWorkerMemoKeepsSkewCheck(t *testing.T) {
	plan := builtinPlan(t, "quick", 2)
	leaseBody := func(p Plan) []byte {
		b, err := json.Marshal(LeaseResponse{Protocol: ProtocolVersion, Status: StatusLease, LeaseID: "lease-1",
			Job: JobID(p), Shard: scenario.Shard{Index: 1, Count: 2}, Plan: &p})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var answer []byte
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(answer) })
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(stub)}
	run := func(body []byte) (*LeaseResponse, error) {
		t.Helper()
		answer = body
		lease, err := w.lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.runShard(lease)
		return lease, err
	}
	reused := func(stage string, body []byte, first *LeaseResponse, matrix *scenario.Matrix) {
		t.Helper()
		lease, err := run(body)
		if err != nil {
			t.Fatalf("%s: the prepared plan no longer runs: %v", stage, err)
		}
		if lease.Plan != first.Plan {
			t.Fatalf("%s: a lease with the prepared plan's bytes decoded its plan again", stage)
		}
		if w.prepared.matrix != matrix {
			t.Fatalf("%s: an equal plan rebuilt its matrix instead of reusing the prepared one", stage)
		}
	}

	valid := leaseBody(plan)
	first, err := run(valid)
	if err != nil {
		t.Fatal(err)
	}
	prepared := w.prepared.matrix
	reused("second lease", valid, first, prepared)

	otherFingerprint := plan
	otherFingerprint.Fingerprint = "0123456789abcdef" // a different build's digest
	changedValue := plan
	spec := *plan.Spec
	spec.Axes = append([]scenario.Axis(nil), spec.Axes...)
	rounds := &spec.Axes[len(spec.Axes)-1]
	if rounds.Name != "rounds" {
		t.Fatalf("quick's last axis is %q, want rounds", rounds.Name)
	}
	rounds.Values = []string{"400"}
	changedValue.Spec = &spec

	trials := obs.Default().Counter("goalsweep_engine_trials_started_total",
		"Trials handed to the batch engine.")
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"same spec, other fingerprint", otherFingerprint},
		{"one spec value changed, old fingerprint", changedValue},
	} {
		trials0 := trials.Value()
		lease, err := run(leaseBody(tc.plan))
		if err == nil || !strings.Contains(err.Error(), "version skew") {
			t.Fatalf("%s: accepted after a prepared plan: %v", tc.name, err)
		}
		if lease.Plan == first.Plan {
			t.Fatalf("%s: other plan bytes were taken for the prepared plan", tc.name)
		}
		if n := trials.Value() - trials0; n != 0 {
			t.Fatalf("%s: %d trials ran before the refusal", tc.name, n)
		}
	}
	reused("after refusals", valid, first, prepared)
	w.Registry = scenario.NewRegistry() // unversioned, unlike the plan's builtin registry
	if _, err := run(valid); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("the prepared plan accepted under another registry version: %v", err)
	}
}

// TestStatusEndpoint tracks a shard through pending -> leased -> done on
// /status and GET /v1/sweeps/{id}; a lease scoped to the complete job
// answers done, and unknown sweeps answer 404.
func TestStatusEndpoint(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	coord := newBatch(t, plan, CoordinatorConfig{})
	client := LoopbackClient(coord)
	status := func() (StatusResponse, JobStatus) {
		t.Helper()
		st := getStatus(t, client)
		if len(st.Jobs) != 1 {
			t.Fatalf("status lists %d jobs, want 1", len(st.Jobs))
		}
		return st, st.Jobs[0]
	}

	if st, js := status(); js.Pending != 2 || js.Done != 0 || st.Complete {
		t.Fatalf("initial status %+v", st)
	}
	w := &Worker{Coordinator: "http://coordinator", Client: client, Poll: time.Millisecond, ExitOnIdle: true}
	lease, _ := postLease(t, client, LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if st, js := status(); js.Pending != 1 || js.Leased != 1 || st.Workers != 1 {
		t.Fatalf("status after lease %+v", st)
	}
	sr, err := w.runShard(lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st, js := status(); js.Done != 1 || st.Complete {
		t.Fatalf("status after one submit %+v", st)
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, js := status(); js.Done != 2 || !js.Complete || !st.Complete {
		t.Fatalf("final status %+v", st)
	}

	var js JobStatus
	if code := getJSON(t, client, "/v1/sweeps/"+JobID(plan), &js); code != http.StatusOK ||
		!js.Complete || js.Done != 2 || len(js.ShardStates) != 2 {
		t.Fatalf("GET /v1/sweeps/{id} = %d %+v, want complete with 2 shard states", code, js)
	}
	if code := getJSON(t, client, "/v1/sweeps/sw-nope-1", &js); code != http.StatusNotFound {
		t.Fatalf("GET of an unknown sweep = %d, want 404", code)
	}
	// A lease scoped to the complete job answers done, so a worker pinned
	// to it (work -job) exits.
	api := loopbackAPI(coord)
	if lease, err := api.Lease(context.Background(), JobID(plan), LeaseRequest{Worker: "w"}, nil); err != nil || lease.Status != StatusDone {
		t.Fatalf("lease scoped to a complete job = %+v, %v; want done", lease, err)
	}
	var re *RefusedError
	if _, err := api.Lease(context.Background(), "sw-nope-1", LeaseRequest{Worker: "w"}, nil); !errors.As(err, &re) || re.Code != http.StatusNotFound {
		t.Fatalf("lease scoped to an unknown sweep = %v, want 404", err)
	}
}

// TestMergedRefusesIncomplete: asking for the merged report before every
// shard landed is an error naming the missing count.
func TestMergedRefusesIncomplete(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 3)
	coord := newBatch(t, plan, CoordinatorConfig{})
	if _, _, err := coord.JobMerged(JobID(plan)); err == nil || !strings.Contains(err.Error(), "3 of 3") {
		t.Fatalf("incomplete merge: %v", err)
	}
	if _, _, err := coord.JobMerged("sw-nope-1"); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Fatalf("merge of an unknown sweep: %v", err)
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
