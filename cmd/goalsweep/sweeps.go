package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/dist"
	"repro/internal/scenario"
)

// runSubmit enqueues one sweep on a service coordinator: goalsweep
// submit -coordinator URL -spec F|-builtin N [-shards n|auto] [...]
// posts the spec plus overrides to POST /v1/sweeps and prints the job
// ID — and nothing else — on stdout, so scripts can capture it
// directly (JOB=$(goalsweep submit ...)). The human-readable line goes
// to stderr. Submitting an identical sweep again returns the existing
// job's ID: the verb is idempotent and safe to re-run.
func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goalsweep submit", flag.ContinueOnError)
	var sf sweepFlags
	sf.add(fs, "")
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port; required)")
		shardsFlag  = fs.String("shards", "auto", "work units to partition the job into (a count, or \"auto\" to let the coordinator size it from fleet size and observed shard latency)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("submit needs -coordinator URL (the address goalsweep serve printed)")
	}
	shards, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	resp, err := dist.NewClient(*coordinator, nil).CreateSweep(ctx, sf.request(spec, shards))
	if err != nil {
		return err
	}
	verb := "submitted"
	if !resp.Created {
		verb = "already queued"
	}
	fmt.Fprintf(stderr, "goalsweep: sweep %s: job %s, spec %q, %d shards (fingerprint %s)\n",
		verb, resp.Job.ID, resp.Job.Spec, resp.Job.Shards, resp.Job.Fingerprint)
	_, err = fmt.Fprintln(stdout, resp.Job.ID)
	return err
}

// runWatch follows one job to completion and renders its report:
// goalsweep watch -coordinator URL [-json|-csv] [-out F] JOB subscribes
// to the job's SSE event stream, collects every shard envelope
// (already-finished shards replay first, the rest arrive live), merges
// them and writes the ordinary report — byte-identical to a local run
// of the same spec. Watching a completed job just replays the stream,
// so the verb doubles as "fetch the report".
func runWatch(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("goalsweep watch", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port; required)")
		jsonOut     = fs.Bool("json", false, "emit the merged aggregates and summary as JSON")
		csvOut      = fs.Bool("csv", false, "emit the merged aggregates as CSV")
		outPath     = fs.String("out", "", "write output to this file instead of stdout")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("watch needs -coordinator URL (the address goalsweep serve printed)")
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("watch takes exactly one job ID (goalsweep submit printed it)")
	}
	jobID := fs.Arg(0)

	var sweepShards []*scenario.ShardResult
	start := time.Now()
	// FollowEvents survives dropped streams: it re-subscribes with capped
	// backoff and replays from the start, deduplicating shard frames by
	// ID, so a mid-sweep network blip costs a reconnect, not the report.
	opt := dist.FollowOptions{OnRetry: func(err error, wait time.Duration) {
		fmt.Fprintf(stderr, "goalsweep: job %s: event stream dropped (%v), reconnecting in %v\n",
			jobID, err, wait)
	}}
	err := dist.NewClient(*coordinator, nil).FollowEvents(ctx, jobID, opt, func(ev dist.SweepEvent) error {
		if ev.Type != dist.EventShard {
			return nil
		}
		sr, err := scenario.ReadShardResult(bytes.NewReader(ev.Data))
		if err != nil {
			return fmt.Errorf("shard event %s: %w", ev.ID, err)
		}
		sweepShards = append(sweepShards, sr)
		fmt.Fprintf(stderr, "goalsweep: job %s: shard %s done (%d of %d)\n",
			jobID, sr.Shard, len(sweepShards), sr.Shard.Count)
		return nil
	})
	if err != nil {
		return err
	}
	stats, sum, err := scenario.MergeShards(sweepShards)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "goalsweep: job %s complete: %d shards in %v\n",
		jobID, len(sweepShards), time.Since(start).Round(time.Millisecond))

	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if err := renderReport(out, *jsonOut, *csvOut, nil, sweepShards[0].Spec, sum, stats, int64(len(stats))); err != nil {
		return err
	}
	return trialFailures(sum, stats)
}
