package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// chaosInjector builds the seeded fault injector for a -chaos flag, or
// nil when the flag is empty. The spec string and seed fully determine
// the fault schedule, so a run is reproduced by repeating both.
func chaosInjector(spec string, seed uint64, events *obs.Logger) (*chaos.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	cs, err := chaos.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	inj, err := chaos.New(cs, seed)
	if err != nil {
		return nil, err
	}
	inj.Events = events
	return inj, nil
}

// parseShards resolves a -shards value: "auto" means the coordinator
// sizes the partition itself (from fleet size and observed shard
// latency), anything else must be a positive count.
func parseShards(s string) (int, error) {
	if s == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-shards must be a positive count or \"auto\", got %q", s)
	}
	return n, nil
}

// eventLogger builds the CLI's structured event log: warnings and
// errors always reach stderr; -v opens the firehose (debug and up).
func eventLogger(stderr io.Writer, verbose bool) *obs.Logger {
	min := obs.LevelWarn
	if verbose {
		min = obs.LevelDebug
	}
	return obs.NewLogger(stderr, min)
}

// runServe is the coordinator side of a distributed sweep. In batch
// mode — goalsweep serve -spec F|-builtin N -shards n -listen addr —
// it submits one sweep to its own queue (the request goalsweep submit
// would send, over the in-process loopback transport), leases shards to
// workers over HTTP until every envelope has been submitted, then merges
// them and writes the ordinary report, byte-identical to an unsharded
// local run of the same sweep. With -service the same coordinator runs
// as a long-lived multi-tenant job queue instead: jobs arrive over POST
// /v1/sweeps (goalsweep submit), reports leave over the SSE event stream
// (goalsweep watch), and the process runs until interrupted. -state DIR
// makes the queue survive restarts in either mode.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("goalsweep serve", flag.ContinueOnError)
	var (
		specPath     = fs.String("spec", "", "JSON scenario spec file")
		builtin      = fs.String("builtin", "", "built-in spec name (default, quick); ignored when -spec is set")
		shardsFlag   = fs.String("shards", "2", "how many work units to partition the selection into (a count; \"auto\" is only meaningful per job, via goalsweep submit)")
		service      = fs.Bool("service", false, "run a long-lived multi-tenant job queue instead of a one-shot batch sweep; jobs arrive via goalsweep submit, so spec and report flags are refused")
		stateDir     = fs.String("state", "", "persist job plans and shard envelopes under this directory and resume incomplete jobs on restart")
		listen       = fs.String("listen", "127.0.0.1:0", "coordinator listen address (host:port; port 0 picks one)")
		leaseTimeout = fs.Duration("lease-timeout", 2*time.Minute, "re-issue a shard when its worker has neither submitted nor renewed within this long (workers renew at a third of it while computing)")
		linger       = fs.Duration("linger", 2*time.Second, "after the last shard lands, keep serving this long so polling workers hear the sweep is done")
		sample       = fs.Int("sample", 0, "sweep only a deterministic random subset of this many scenarios (0 = all)")
		sampleSeed   = fs.Uint64("sampleseed", 1, "seed for -sample subset selection")
		seeds        = fs.Int("seeds", 0, "override the spec's trials per scenario (0 = spec value)")
		window       = fs.Int("window", 0, "override the spec's convergence window (0 = spec value)")
		baseSeed     = fs.Uint64("baseseed", 0, "override the spec's base seed (0 = spec value)")
		jsonOut      = fs.Bool("json", false, "emit the merged aggregates and summary as JSON")
		csvOut       = fs.Bool("csv", false, "emit the merged aggregates as CSV")
		outPath      = fs.String("out", "", "write output to this file instead of stdout")
		maxInflight  = fs.Int("max-inflight-leases", 0, "shed lease requests with 429 + Retry-After beyond this many concurrently served ones (0 = default bound, negative = unbounded)")
		speculate    = fs.Duration("speculate-after", 0, "re-lease a straggling shard to a second worker once its lease is this old (0 = only after the full lease timeout); safe because shards are deterministic and the first submit wins")
		chaosSpec    = fs.String("chaos", "", "inject accept-side faults from this schedule, e.g. \"adrop=2,adelay=3:20ms\" (see goalsweep chaostest)")
		chaosSeed    = fs.Uint64("chaosseed", 1, "seed for the -chaos fault schedule; same spec + seed reproduces the same faults")
		verbose      = fs.Bool("v", false, "log every lease/submit lifecycle event to stderr (default: warnings only)")
		cpuProfile   = fs.String("cpuprofile", "", "refused: profile a local goalsweep run instead")
		memProfile   = fs.String("memprofile", "", "refused: profile a local goalsweep run instead")
		filters      filterFlags
	)
	fs.Var(&filters, "filter", "restrict an axis: axis=v1,v2 (repeatable)")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" || *memProfile != "" {
		// A coordinator's profile records protocol plumbing while the
		// actual sweep burns CPU in the worker fleet — the artifact would
		// interleave processes and mislead. The hot path is a local run.
		return fmt.Errorf("serve does not support -cpuprofile/-memprofile: the sweep executes in the worker fleet, so the profile would not cover it; profile a local run (goalsweep -builtin ... -cpuprofile ...)")
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}

	var req dist.SweepRequest
	if *service {
		// A service has no spec of its own (jobs arrive over the API),
		// writes no report (watch renders them per job) and runs until
		// signalled, so every batch flag that was set — even to its
		// default value — is a mistake worth refusing loudly.
		var sweepFlags, reportFlags []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "spec", "builtin", "filter", "shards", "sample", "sampleseed", "seeds", "window", "baseseed":
				sweepFlags = append(sweepFlags, "-"+f.Name)
			case "json", "csv", "out", "linger":
				reportFlags = append(reportFlags, "-"+f.Name)
			}
		})
		if len(sweepFlags) > 0 {
			return fmt.Errorf("serve -service takes no sweep flags (%s): submit specs with `goalsweep submit` (per-job -shards/-seeds/... live there)",
				strings.Join(sweepFlags, " "))
		}
		if len(reportFlags) > 0 {
			return fmt.Errorf("serve -service writes no report and runs until signalled (%s): render a job with `goalsweep watch`",
				strings.Join(reportFlags, " "))
		}
	} else {
		shards, err := parseShards(*shardsFlag)
		if err != nil {
			return err
		}
		if shards == 0 {
			return fmt.Errorf("-shards auto sizes per submitted job and needs -service; a batch sweep wants an explicit count")
		}
		spec, err := resolveSpec(*specPath, *builtin, filters)
		if err != nil {
			return err
		}
		req = dist.SweepRequest{Spec: spec, Shards: shards, Seeds: *seeds, Window: *window, BaseSeed: *baseSeed,
			SampleN: *sample, SampleSeed: *sampleSeed}
	}

	events := eventLogger(stderr, *verbose)
	coord, err := dist.NewService(dist.CoordinatorConfig{
		LeaseTTL:          *leaseTimeout,
		Events:            events,
		StateDir:          *stateDir,
		MaxInflightLeases: *maxInflight,
		SpeculateAfter:    *speculate,
	})
	if err != nil {
		return err
	}
	var job dist.JobStatus
	if !*service {
		// The CLI binds through the stock registry on both sides of the
		// protocol; workers re-derive the fingerprint from their own binary
		// and refuse a skewed plan.
		resp, err := dist.NewClient("http://coordinator", dist.LoopbackClient(coord)).CreateSweep(ctx, req)
		if err != nil {
			return err
		}
		job = resp.Job
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	inj, err := chaosInjector(*chaosSpec, *chaosSeed, events)
	if err != nil {
		return err
	}
	if inj != nil {
		ln = inj.Listener(ln)
	}
	// The serving line is the startup handshake for scripts (and tests):
	// they scrape the URL after "at ", which carries the resolved address
	// when the port was 0.
	if *service {
		fmt.Fprintf(stderr, "goalsweep: sweep service at http://%s (%d jobs recovered)\n",
			ln.Addr(), len(coord.Jobs()))
	} else {
		fmt.Fprintf(stderr, "goalsweep: serving %d shards of spec %q (fingerprint %s) at http://%s\n",
			job.Shards, job.Spec, job.Fingerprint, ln.Addr())
	}
	srv := &http.Server{Handler: serveHandler(coord)}
	go srv.Serve(ln)
	if *service {
		<-ctx.Done()
		fmt.Fprintln(stderr, "goalsweep: sweep service shutting down")
		return srv.Close()
	}
	defer srv.Close()

	start := time.Now()
	if err := coord.WaitJob(ctx, job.ID); err != nil {
		return err
	}
	elapsed := time.Since(start)
	// Let live workers hear StatusDone before the listener goes away:
	// Drain waits until each has been answered done, and Shutdown lets
	// those answers finish writing. Crashed workers never drain, so both
	// are bounded by -linger.
	drainCtx, cancel := context.WithTimeout(context.Background(), *linger)
	coord.Drain(drainCtx)
	srv.Shutdown(drainCtx)
	cancel()
	stats, sum, err := coord.JobMerged(job.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "goalsweep: distributed sweep complete: %d shards from %d workers in %v\n",
		job.Shards, coord.Workers(), elapsed.Round(time.Millisecond))

	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if err := renderReport(out, *jsonOut, *csvOut, nil, req.Spec, sum, stats, int64(len(stats))); err != nil {
		return err
	}
	return trialFailures(sum, stats)
}

// runWork is the worker side: goalsweep work -coordinator URL pulls
// shard leases — job-agnostic fair-share by default, pinned with -job —
// executes them through the ordinary local sweep (optionally against a
// shared result cache) and submits the envelopes until the coordinator
// reports the queue done (or, against a -service coordinator, forever;
// -exit-when-idle returns once the queue drains instead).
func runWork(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goalsweep work", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port; required)")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory, shareable between colocated workers")
		parallel    = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		poll        = fs.Duration("poll", 500*time.Millisecond, "backoff between lease attempts while all shards are claimed elsewhere")
		id          = fs.String("id", "", "worker name in coordinator accounting (default derived from the process ID)")
		job         = fs.String("job", "", "work only this job's shards and exit when it completes (default: fair-share across the whole queue)")
		exitIdle    = fs.Bool("exit-when-idle", false, "exit when a service coordinator reports no open work instead of polling for new jobs")
		chaosSpec   = fs.String("chaos", "", "inject request-side faults from this schedule, e.g. \"drop=2,delay=3:20ms,dup=1,trunc=1,err=2\" (see goalsweep chaostest)")
		chaosSeed   = fs.Uint64("chaosseed", 1, "seed for the -chaos fault schedule; same spec + seed reproduces the same faults")
		verbose     = fs.Bool("v", false, "log every lease/shard lifecycle event to stderr (default: warnings only)")
		cpuProfile  = fs.String("cpuprofile", "", "refused: profile a local goalsweep run instead")
		memProfile  = fs.String("memprofile", "", "refused: profile a local goalsweep run instead")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" || *memProfile != "" {
		// One worker's profile covers an arbitrary, lease-dependent slice
		// of the sweep interleaved with the rest of the fleet's — not a
		// reproducible artifact. The hot path is identical in a local run.
		return fmt.Errorf("work does not support -cpuprofile/-memprofile: a worker profiles an arbitrary slice of a fleet's sweep; profile a local run (goalsweep -builtin ... -cpuprofile ...)")
	}
	if *coordinator == "" {
		return fmt.Errorf("work needs -coordinator URL (the address goalsweep serve printed)")
	}
	events := eventLogger(stderr, *verbose)
	w := &dist.Worker{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		Parallel:    *parallel,
		Poll:        *poll,
		ID:          *id,
		Job:         *job,
		ExitOnIdle:  *exitIdle,
		Events:      events,
	}
	inj, err := chaosInjector(*chaosSpec, *chaosSeed, events)
	if err != nil {
		return err
	}
	if inj != nil {
		// Faults ride the worker's own HTTP client, between the retry loop
		// and the wire: every injected drop/delay/dup/truncation/5xx
		// exercises the worker's classifier and backoff for real.
		w.Client = inj.Client(nil)
	}
	if *cacheDir != "" {
		cache, err := scenario.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		w.Cache = cache
	}
	n, err := w.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "goalsweep: worker completed %d shards\n", n)
	return nil
}
