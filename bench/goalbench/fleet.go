package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/scenario"
)

// rtRecord is one HTTP exchange as a fleet client saw it.
type rtRecord struct {
	who        int // worker index, -1 for the submitting client
	kind       string
	start, end time.Time
	failed     bool
	reqBytes   int64
	lease      string // lease ID in a submit's path
	body       []byte // lease responses, decoded after the run
}

// timingTransport records every request's round trip. It reads each
// response body in full before returning, so a round trip includes the
// transfer; event streams are left streaming.
type timingTransport struct {
	who    int
	base   http.RoundTripper
	mu     *sync.Mutex
	log    *[]rtRecord
	opened chan struct{} // closed when the first event stream answers
}

func requestKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "create"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/leases"):
		return "lease"
	case strings.HasSuffix(p, "/renew"):
		return "renew"
	case strings.HasSuffix(p, "/result"):
		return "submit"
	}
	return "other"
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := rtRecord{who: t.who, kind: requestKind(req), start: time.Now(), reqBytes: req.ContentLength}
	if rec.kind == "submit" {
		rec.lease = strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/leases/"), "/result")
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && rec.kind != "events" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if rerr != nil {
			resp, err = nil, rerr
		} else if rec.kind == "lease" {
			rec.body = body
		}
	}
	rec.end = time.Now()
	rec.failed = err != nil || resp.StatusCode < 200 || resp.StatusCode > 299
	t.mu.Lock()
	*t.log = append(*t.log, rec)
	t.mu.Unlock()
	if rec.kind == "events" && t.opened != nil {
		close(t.opened)
		t.opened = nil
	}
	return resp, err
}

// fleetRun is what the in-process fleet observed.
type fleetRun struct {
	ack, complete time.Time
	records       []rtRecord
	frames        map[int]time.Time // shard index -> SSE frame arrival
	merged        []*scenario.Stats
	mergeMs       float64
}

// runFleet runs the fleet workload in process: dist.NewService on a real
// 127.0.0.1 listener, P dist.Workers at -parallel 1 whose HTTP clients
// time every round trip, and a dist.Client that submits the sweep and
// follows its event stream.
func (b *bench) runFleet(ctx context.Context, tr *tracer) (*fleetRun, error) {
	state, err := os.MkdirTemp(b.work, "trace-state-")
	if err != nil {
		return nil, err
	}
	defer removeAll(state)
	coord, err := dist.NewService(dist.CoordinatorConfig{StateDir: state})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: coord}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	var mu sync.Mutex
	var records []rtRecord
	client := func(who int, opened chan struct{}) *http.Client {
		base := http.DefaultTransport.(*http.Transport).Clone()
		return &http.Client{Transport: &timingTransport{who: who, base: base, mu: &mu, log: &records, opened: opened}}
	}
	opened := make(chan struct{})
	api := dist.NewClient(url, client(-1, opened))
	fr := &fleetRun{frames: make(map[int]time.Time)}

	resp, err := api.CreateSweep(ctx, dist.SweepRequest{
		Spec: familySpec(), Shards: b.sz.FleetShards, BaseSeed: b.seed,
		SampleN: b.sz.FleetSample, SampleSeed: b.seed,
	})
	if err != nil {
		return nil, err
	}
	fr.ack = time.Now()
	job := resp.Job.ID

	evCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	evDone := make(chan error, 1)
	go func() {
		evDone <- api.Events(evCtx, job, func(ev dist.SweepEvent) error {
			now := time.Now()
			switch ev.Type {
			case dist.EventShard:
				idx, err := strconv.Atoi(ev.ID)
				if err != nil {
					return fmt.Errorf("shard frame id %q: %w", ev.ID, err)
				}
				fr.frames[idx] = now
			case dist.EventComplete:
				fr.complete = now
			}
			return nil
		})
	}()
	// Workers start once the stream is open, so every frame is live.
	select {
	case <-opened:
	case err := <-evDone:
		return nil, fmt.Errorf("event stream: %v", err)
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("event stream did not open within 30s")
	}

	errs := make([]error, b.procs)
	var wg sync.WaitGroup
	for i := 0; i < b.procs; i++ {
		w := &dist.Worker{
			Coordinator: url, Client: client(i, nil), Parallel: 1, Poll: 20 * time.Millisecond,
			ExitOnIdle: true, ID: fmt.Sprintf("goalbench-%d", i),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if err := <-evDone; err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	sp := tr.start(9, 0, "dist.JobMerged")
	t := time.Now()
	stats, _, err := coord.JobMerged(job)
	fr.mergeMs = float64(time.Since(t).Nanoseconds()) / 1e6
	sp.end()
	if err != nil {
		return nil, err
	}
	fr.merged = stats
	mu.Lock()
	fr.records = append([]rtRecord(nil), records...)
	mu.Unlock()
	return fr, nil
}

// shardTimes is one granted lease followed through its worker: lease
// round trip, the gap until the envelope goes out (prep plus compute),
// the submit round trip, and the interval to the worker's next lease
// call.
type shardTimes struct {
	lease, submit rtRecord
	shard         int
	next          time.Time
}

// fleetLayers derives the dist and envelope metrics from a fleet run and
// records one span per exchange, each shard's exchanges under their own
// trace.
func (b *bench) fleetLayers(tr *tracer, fr *fleetRun) (map[string]float64, error) {
	L := make(map[string]float64)
	job := tr.record(10, 0, "dist.job", tr.at(fr.ack), tr.at(fr.complete))
	byWorker := make(map[int][]rtRecord)
	failed := 0
	for _, r := range fr.records {
		if r.failed {
			failed++
		}
		if r.who >= 0 {
			byWorker[r.who] = append(byWorker[r.who], r)
		}
	}
	L["dist.failed_request_ratio"] = float64(failed) / float64(len(fr.records))

	var shards []shardTimes
	leaseCalls, wasted := 0, 0
	for _, recs := range byWorker {
		sort.Slice(recs, func(i, j int) bool { return recs[i].start.Before(recs[j].start) })
		for i, r := range recs {
			if r.kind != "lease" {
				continue
			}
			leaseCalls++
			var lr dist.LeaseResponse
			if err := json.Unmarshal(r.body, &lr); err != nil {
				return nil, fmt.Errorf("lease response: %w", err)
			}
			if lr.Status != dist.StatusLease {
				wasted++
				tr.record(10, job, "dist.poll", tr.at(r.start), tr.at(r.end))
				continue
			}
			st := shardTimes{lease: r, shard: lr.Shard.Index}
			for _, s := range recs[i+1:] {
				if st.submit.kind == "" && s.kind == "submit" && s.lease == lr.LeaseID {
					st.submit = s
				} else if st.submit.kind != "" && s.kind == "lease" {
					st.next = s.start
					break
				}
			}
			if st.submit.kind == "" || st.next.IsZero() {
				return nil, fmt.Errorf("lease %s: no submit, or no lease call after it", lr.LeaseID)
			}
			shards = append(shards, st)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet granted no leases")
	}
	L["dist.wasted_lease_ratio"] = float64(wasted) / float64(leaseCalls)

	var leaseRTT, submitRTT, lag, queue []float64
	var prepSum, computeSum, accounted, interval, envelope float64
	for _, st := range shards {
		prep, err := prepTime(st.lease.body)
		if err != nil {
			return nil, err
		}
		gap := st.submit.start.Sub(st.lease.end).Seconds() * 1e3
		lRTT := st.lease.end.Sub(st.lease.start).Seconds() * 1e3
		sRTT := st.submit.end.Sub(st.submit.start).Seconds() * 1e3
		leaseRTT = append(leaseRTT, lRTT)
		submitRTT = append(submitRTT, sRTT)
		queue = append(queue, st.lease.end.Sub(fr.ack).Seconds()*1e3)
		if frame, ok := fr.frames[st.shard]; ok {
			lag = append(lag, frame.Sub(st.submit.start).Seconds()*1e3)
		}
		prepSum += prep
		computeSum += gap - prep
		accounted += lRTT + gap + sRTT
		interval += st.next.Sub(st.lease.start).Seconds() * 1e3
		envelope += float64(st.submit.reqBytes)

		trace := int64(100 + st.shard)
		tr.record(trace, job, "dist.lease", tr.at(st.lease.start), tr.at(st.lease.end))
		tr.record(trace, job, "dist.shard", tr.at(st.lease.end), tr.at(st.submit.start))
		tr.record(trace, job, "dist.submit", tr.at(st.submit.start), tr.at(st.submit.end))
		if frame, ok := fr.frames[st.shard]; ok {
			tr.record(trace, job, "dist.sse", tr.at(st.submit.start), tr.at(frame))
		}
	}
	n := float64(len(shards))
	setPercentiles(L, "dist.lease_rtt_ms", leaseRTT)
	setPercentiles(L, "dist.submit_rtt_ms", submitRTT)
	setPercentiles(L, "dist.sse_lag_ms", lag)
	L["dist.worker_prep_ms"] = prepSum / n
	L["dist.shard_compute_ms"] = computeSum / n
	L["dist.queue_wait_ms"] = mean(queue)
	jobMs := fr.complete.Sub(fr.ack).Seconds() * 1e3
	L["dist.fleet_busy_share"] = computeSum / (float64(b.procs) * jobMs)
	L["dist.accounted_share"] = accounted / interval
	L["scenario.envelope_bytes"] = envelope / n
	L["scenario.merge_ms"] = fr.mergeMs
	return L, nil
}

// prepTime re-times, in milliseconds, what a worker does with a lease
// before its sweep starts: decode the answer, validate the plan, bind a
// registry, re-derive the fingerprint, build the matrix and cut the
// shard's indices from the plan's selection.
func prepTime(body []byte) (float64, error) {
	t := time.Now()
	var lr dist.LeaseResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		return 0, err
	}
	plan := lr.Plan
	if err := plan.Validate(); err != nil {
		return 0, err
	}
	reg := scenario.Builtin()
	if fp := scenario.Fingerprint(plan.Spec, reg.Version(), plan.Seeds, plan.Window, plan.BaseSeed,
		plan.SampleN, plan.SampleSeed); fp != plan.Fingerprint {
		return 0, fmt.Errorf("plan fingerprint %s, recomputed %s", plan.Fingerprint, fp)
	}
	m, err := scenario.NewMatrix(plan.Spec)
	if err != nil {
		return 0, err
	}
	if len(lr.Shard.Indices(m, plan.Selection(m))) == 0 {
		return 0, fmt.Errorf("shard %s is empty", lr.Shard)
	}
	return time.Since(t).Seconds() * 1e3, nil
}

// traceFleet measures the sweep layers of the fleet's selection — the
// executions its workers perform — then runs the fleet in process.
func traceFleet(ctx context.Context, b *bench, tr *tracer, wr *workloadRun) (map[string]float64, error) {
	m, indices, sampleMs, err := b.sampled(tr, b.sz.FleetSample)
	if err != nil {
		return nil, err
	}
	L, err := b.sweepLayers(tr, m, indices, scenario.SweepConfig{BaseSeed: b.seed}, wr.counts, wr.wallMedian())
	if err != nil {
		return nil, err
	}
	L["scenario.sample_ms"] = sampleMs
	fr, err := b.runFleet(ctx, tr)
	if err != nil {
		return nil, err
	}
	D, err := b.fleetLayers(tr, fr)
	if err != nil {
		return nil, err
	}
	for k, v := range D {
		L[k] = v
	}
	merged := make(map[string]int, len(fr.merged))
	var rounds int64
	for _, st := range fr.merged {
		merged[st.ID] = st.Successes
		rounds += st.ExecutedRounds
	}
	L["trace.replay_mismatches"] += float64(mismatches(wr.counts, merged, rounds))
	return L, nil
}
