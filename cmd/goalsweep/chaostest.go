package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// runChaostest is the fault-injection acceptance harness: goalsweep
// chaostest runs a distributed sweep (an in-process coordinator plus a
// small worker fleet over the loopback protocol) under a seeded chaos
// schedule, then checks the two properties the failure model promises:
//
//  1. the merged report is byte-identical to a fresh serial run of the
//     same plan — faults cost retries, never bytes;
//  2. repeating the run with the same -chaos spec and -chaosseed fires
//     the identical fault schedule (the canonical fault logs match),
//     so any failure it does surface is reproducible.
//
// It exits nonzero the moment either property breaks.
func runChaostest(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goalsweep chaostest", flag.ContinueOnError)
	var sf sweepFlags
	sf.add(fs, "quick")
	var (
		shards    = fs.Int("shards", 6, "work units to partition the sweep into")
		workers   = fs.Int("workers", 2, "concurrent workers in the in-process fleet")
		chaosSpec = fs.String("chaos", "drop=2,delay=2:10ms,dup=1,trunc=1,err=2", "fault schedule to inject on the workers' requests")
		chaosSeed = fs.Uint64("chaosseed", 1, "seed for the fault schedule; same spec + seed reproduces the same faults")
		runs      = fs.Int("runs", 2, "repetitions of the chaotic sweep; all must match the serial baseline and each other's fault logs")
		poll      = fs.Duration("poll", 10*time.Millisecond, "worker lease-poll interval and retry-backoff base")
		faultLog  = fs.Bool("faultlog", false, "print the canonical fault log to stdout")
		verbose   = fs.Bool("v", false, "log every chaos/lease/shard lifecycle event to stderr (default: warnings only)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 || *workers < 1 || *runs < 1 {
		return fmt.Errorf("-shards, -workers and -runs must all be positive")
	}
	cs, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}
	// Every request-op fault must actually fire or the fault-log identity
	// check would compare schedules truncated at run-dependent points.
	// Lease traffic exceeds the shard count (each worker's final done-poll
	// is a lease call too) but submits number exactly one per shard, so
	// the shard count is the horizon every class is guaranteed to reach.
	if cs.Horizon == 0 {
		cs.Horizon = *shards
	}
	if cs.Horizon > *shards {
		return fmt.Errorf("chaos horizon %d exceeds -shards %d: scheduled faults past the shard count may never fire, so the fault log would not be comparable across runs", cs.Horizon, *shards)
	}

	spec, err := sf.spec()
	if err != nil {
		return err
	}
	plan, err := dist.NewPlan(spec, scenario.Builtin().Version(), sf.config(), *shards, sf.sample, sf.sampleSeed)
	if err != nil {
		return err
	}
	req := sf.request(spec, *shards)

	// The serial baseline: the same plan swept in-process with no
	// distribution and no faults. This is the byte-identity reference.
	serial, err := serialReportBytes(plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "goalsweep: chaostest: spec %q, %d shards, %d workers, chaos %q seed %d (%d faults scheduled)\n",
		spec.Name, *shards, *workers, cs, *chaosSeed, cs.Total())

	events := eventLogger(stderr, *verbose)
	var refLog string
	for run := 1; run <= *runs; run++ {
		inj, err := chaos.New(cs, *chaosSeed)
		if err != nil {
			return err
		}
		inj.Events = events
		merged, err := chaoticSweep(ctx, req, inj, *workers, *poll, events)
		if err != nil {
			return fmt.Errorf("chaostest run %d: %w", run, err)
		}
		if !bytes.Equal(merged, serial) {
			return fmt.Errorf("chaostest run %d: merged report diverges from the serial baseline (%d vs %d bytes): faults leaked into results", run, len(merged), len(serial))
		}
		fired := inj.Log()
		if len(fired) != cs.Total() {
			return fmt.Errorf("chaostest run %d: %d of %d scheduled faults fired — the schedule did not complete, so determinism cannot be checked", run, len(fired), cs.Total())
		}
		flog := chaos.FormatLog(fired)
		if run == 1 {
			refLog = flog
		} else if flog != refLog {
			return fmt.Errorf("chaostest run %d: fault log diverges from run 1 under the same seed:\nrun 1:\n%srun %d:\n%s", run, refLog, run, flog)
		}
		fmt.Fprintf(stderr, "goalsweep: chaostest: run %d ok: %d faults injected, merged report byte-identical to serial baseline\n",
			run, len(fired))
	}
	if *faultLog {
		fmt.Fprint(stdout, refLog)
	}
	fmt.Fprintf(stdout, "chaostest ok: %d runs, %d faults each, merged report = serial report (%d bytes)\n",
		*runs, cs.Total(), len(serial))
	return nil
}

// chaoticSweep runs one distributed sweep the way a batch goalsweep serve
// does — a fresh service, the sweep submitted over the loopback client,
// the job awaited, the fleet drained, the job merged — with the shared
// fault injector wrapped around the workers' loopback client, so every
// worker retries through whatever the injector throws at it. Returns
// the merged report bytes.
func chaoticSweep(ctx context.Context, req dist.SweepRequest, inj *chaos.Injector, workers int, poll time.Duration, events *obs.Logger) ([]byte, error) {
	// A truncated lease response strands the granted lease: the worker
	// cannot decode its grant, retries, and the shard sits leased-but-dead
	// until the TTL. Speculation papers over exactly that — another worker
	// re-leases the straggling shard early and the first submit wins — so
	// the harness turns it on aggressively to keep chaotic runs fast.
	coord, err := dist.NewService(dist.CoordinatorConfig{
		LeaseTTL:       10 * time.Second,
		SpeculateAfter: 250 * time.Millisecond,
		Events:         events,
	})
	if err != nil {
		return nil, err
	}
	// Admission bypasses the injector: the fault schedule targets the
	// workers' lease and submit traffic.
	resp, err := dist.NewClient("http://coordinator", dist.LoopbackClient(coord)).CreateSweep(ctx, req)
	if err != nil {
		return nil, err
	}
	client := inj.Client(dist.LoopbackClient(coord))

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range workers {
		w := &dist.Worker{
			Coordinator: "http://coordinator",
			Client:      client,
			Poll:        poll,
			Retries:     100,
			ID:          fmt.Sprintf("chaos-w%d", i+1),
			Events:      events,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Run(ctx)
		}()
	}
	waitErr := coord.WaitJob(ctx, resp.Job.ID)
	if waitErr == nil {
		// The workers exit once they hear StatusDone, as under serve.
		drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		coord.Drain(drainCtx)
		cancel()
	}
	wg.Wait()
	if waitErr != nil {
		return nil, waitErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	stats, sum, err := coord.JobMerged(resp.Job.ID)
	if err != nil {
		return nil, err
	}
	return reportBytes(stats, sum)
}

// serialReportBytes sweeps the plan in-process with no distribution —
// the reference every chaotic run must reproduce byte for byte.
func serialReportBytes(plan dist.Plan) ([]byte, error) {
	m, err := scenario.NewMatrix(plan.Spec)
	if err != nil {
		return nil, err
	}
	var stats []*scenario.Stats
	sum, err := m.Sweep(plan.Selection(m), scenario.SweepConfig{
		Seeds:    plan.Seeds,
		Window:   plan.Window,
		BaseSeed: plan.BaseSeed,
		OnStats:  func(st *scenario.Stats) error { stats = append(stats, st); return nil },
	})
	if err != nil {
		return nil, err
	}
	return reportBytes(stats, sum)
}

func reportBytes(stats []*scenario.Stats, sum *scenario.Summary) ([]byte, error) {
	return json.Marshal(struct {
		Stats   []*scenario.Stats
		Summary *scenario.Summary
	}{stats, sum})
}
