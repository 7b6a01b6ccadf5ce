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

// runServe runs the sweep service: one coordinator as a long-lived
// multi-tenant job queue. Jobs arrive over POST /v1/sweeps (goalsweep
// submit), workers lease their shards (goalsweep work), reports leave
// over the SSE event stream (goalsweep watch), and the process runs
// until interrupted. -state DIR makes the queue survive restarts.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goalsweep serve", flag.ContinueOnError)
	var (
		_            = fs.Bool("service", false, "accepted and ignored: serve always runs the sweep service")
		stateDir     = fs.String("state", "", "persist job plans and shard envelopes under this directory and resume incomplete jobs on restart")
		listen       = fs.String("listen", "127.0.0.1:0", "coordinator listen address (host:port; port 0 picks one)")
		leaseTimeout = fs.Duration("lease-timeout", 2*time.Minute, "re-issue a shard when its worker has neither submitted nor renewed within this long (workers renew at a third of it while computing)")
		maxInflight  = fs.Int("max-inflight-leases", 0, "shed lease requests with 429 + Retry-After beyond this many concurrently served ones (0 = default bound, negative = unbounded)")
		speculate    = fs.Duration("speculate-after", 0, "re-lease a straggling shard to a second worker once its lease is this old (0 = only after the full lease timeout); safe because shards are deterministic and the first submit wins")
		chaosSpec    = fs.String("chaos", "", "inject accept-side faults from this schedule, e.g. \"adrop=2,adelay=3:20ms\"")
		chaosSeed    = fs.Uint64("chaosseed", 1, "seed for the -chaos fault schedule; same spec + seed reproduces the same faults")
		verbose      = fs.Bool("v", false, "log every lease/submit lifecycle event to stderr (default: warnings only)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	events := eventLogger(stderr, *verbose)
	inj, err := chaosInjector(*chaosSpec, *chaosSeed, events)
	if err != nil {
		return err
	}
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
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if inj != nil {
		ln = inj.Listener(ln)
	}
	// The serving line is the startup handshake for scripts (and tests):
	// they scrape the URL after "at ", which carries the resolved address
	// when the port was 0.
	fmt.Fprintf(stderr, "goalsweep: sweep service at http://%s (%d jobs recovered)\n",
		ln.Addr(), len(coord.Jobs()))
	srv := &http.Server{Handler: serveHandler(coord)}
	go srv.Serve(ln)
	<-ctx.Done()
	fmt.Fprintln(stderr, "goalsweep: sweep service shutting down")
	return srv.Close()
}

// runWork is the worker side: goalsweep work -coordinator URL pulls
// shard leases — job-agnostic fair-share by default, pinned with -job —
// executes them through the ordinary local sweep (optionally against a
// shared result cache) and submits the envelopes. A -job worker exits
// when its job completes; -exit-when-idle returns once the whole queue
// is complete; otherwise the worker polls for new jobs until
// interrupted.
func runWork(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goalsweep work", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port; required)")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory, shareable between colocated workers")
		parallel    = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		poll        = fs.Duration("poll", 500*time.Millisecond, "backoff between lease attempts while all shards are claimed elsewhere")
		id          = fs.String("id", "", "worker name in coordinator accounting (default derived from the process ID)")
		job         = fs.String("job", "", "work only this job's shards and exit when it completes (default: fair-share across the whole queue)")
		exitIdle    = fs.Bool("exit-when-idle", false, "exit when the coordinator reports no open work instead of polling for new jobs")
		chaosSpec   = fs.String("chaos", "", "inject request-side faults from this schedule, e.g. \"drop=2,delay=3:20ms,dup=1,trunc=1,err=2\"")
		chaosSeed   = fs.Uint64("chaosseed", 1, "seed for the -chaos fault schedule; same spec + seed reproduces the same faults")
		verbose     = fs.Bool("v", false, "log every lease/shard lifecycle event to stderr (default: warnings only)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
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
