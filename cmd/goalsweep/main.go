// Command goalsweep evaluates scenario matrices: declarative cross-products
// of (goal × world params × user strategy × server transform stack ×
// horizon) swept through the batch execution engine with online
// per-scenario aggregation.
//
// Usage:
//
//	goalsweep -builtin default                   # sweep the stock matrix
//	goalsweep -spec grid.json -parallel 4        # sweep a JSON spec
//	goalsweep -builtin default -sample 100       # deterministic random subset
//	goalsweep -filter goal=transfer -filter noise=0,0.3
//	goalsweep -builtin default -json -out sweep.json
//	goalsweep -builtin default -csv
//	goalsweep -builtin default -list             # print scenarios, don't run
//	goalsweep -builtin default -cache DIR        # skip already-stored scenarios
//	goalsweep -builtin default -shard 2/3 -json -out shard-2.json
//	goalsweep merge -json -out full.json shard-*.json
//	goalsweep explain -builtin default -id ID -trial 1 -trace run.json
//	goalsweep claims -builtin default            # Theorem 1's verdict per row
//	goalsweep -builtin default -fingerprint      # print the sweep fingerprint
//	goalsweep serve -state DIR -listen :8077
//	goalsweep submit -coordinator http://host:8077 -builtin default -shards auto
//	goalsweep work -coordinator http://host:8077 -cache DIR
//	goalsweep watch -coordinator http://host:8077 -json -out report.json JOB
//
// Sweeps are deterministic per spec and seed: -parallel bounds the worker
// pool without changing a byte of -json/-csv output, and every scenario
// carries a stable content-derived ID, so sampled sweeps report exactly
// what a full enumeration would report for the same scenarios. No report
// carries a timing; performance is measured from outside, by the
// repository's benchmark (bench/README.md). Trial seeds are
// content-derived too, so a row's scenario ID and a trial index name one
// execution: "goalsweep explain" re-runs it, prints its verdict and can
// write its round-by-round trace. "goalsweep claims" gives each row
// Theorem 1's verdict, certifying the hypothesis on the row's own
// binding at each trial's seed, and exits 1 on a counterexample.
//
// The same determinism makes sweeps distributed-by-construction: -shard
// i/n runs the i-th of n contiguous partitions of the selection (with
// -json it emits a mergeable envelope), and "goalsweep merge" recombines
// a complete set of envelopes into output byte-identical to the unsharded
// run. "goalsweep serve" automates the same split as a long-lived
// multi-tenant sweep service (see repro/internal/dist): "goalsweep
// submit" enqueues sweeps over the /v1 API (printing the job ID),
// worker processes ("goalsweep work") lease shards over HTTP,
// fair-share across the queue and with a timeout, so a crashed worker's
// shards are re-issued, and the service validates every submitted
// envelope against the sweep fingerprint. "goalsweep watch" streams a
// job's shard envelopes over SSE and renders the merged report,
// byte-identical to a local run of the same spec. With -state DIR the
// service persists plans and envelopes and resumes incomplete jobs
// across restarts without re-executing finished shards.
// -cache DIR keeps a content-addressed store of per-scenario
// aggregates keyed by scenario ID, base seed, trials and window: hit
// scenarios are emitted without executing a single trial, again
// byte-identical; corrupted or foreign-version entries fall back to
// re-execution.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/scenario"
)

func main() {
	// SIGINT/SIGTERM cancel the context instead of killing the process,
	// so a long-lived `serve -service` shuts its listener down cleanly
	// (and a second signal force-kills via the default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "goalsweep:", err)
		os.Exit(1)
	}
}

// filterFlags collects repeated -filter axis=v1,v2 arguments.
type filterFlags []string

func (f *filterFlags) String() string { return strings.Join(*f, "; ") }
func (f *filterFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// sweepFlags are the flags every verb naming a sweep declares alike: the
// spec (-spec, -builtin, -filter), the subset of it (-sample,
// -sampleseed) and the overrides of the spec's own values (-seeds,
// -window, -baseseed).
type sweepFlags struct {
	specPath, builtin string
	filters           filterFlags
	sample            int
	sampleSeed        uint64
	seeds, window     int
	baseSeed          uint64
}

// addSpec registers the spec flags.
func (f *sweepFlags) addSpec(fs *flag.FlagSet) {
	fs.StringVar(&f.specPath, "spec", "", "JSON scenario spec file")
	fs.StringVar(&f.builtin, "builtin", "", "built-in spec name: "+
		strings.Join(scenario.BuiltinSpecNames(), ", ")+" (empty means default); ignored when -spec is set")
	fs.Var(&f.filters, "filter", "restrict an axis: axis=v1,v2 (repeatable)")
}

// addOverrides registers the overrides of the spec's sweep values.
func (f *sweepFlags) addOverrides(fs *flag.FlagSet) {
	fs.IntVar(&f.seeds, "seeds", 0, "override the spec's trials per scenario (0 = spec value)")
	fs.IntVar(&f.window, "window", 0, "override the spec's convergence window (0 = spec value)")
	fs.Uint64Var(&f.baseSeed, "baseseed", 0, "override the spec's base seed (0 = spec value)")
}

// add registers all eight sweep flags.
func (f *sweepFlags) add(fs *flag.FlagSet) {
	f.addSpec(fs)
	fs.IntVar(&f.sample, "sample", 0, "sweep only a deterministic random subset of this many scenarios (0 = all)")
	fs.Uint64Var(&f.sampleSeed, "sampleseed", 1, "seed for -sample subset selection")
	f.addOverrides(fs)
}

// spec loads the named spec with the -filter restrictions applied.
func (f *sweepFlags) spec() (*scenario.Spec, error) {
	return resolveSpec(f.specPath, f.builtin, f.filters)
}

// config carries the overrides into a sweep configuration.
func (f *sweepFlags) config() scenario.SweepConfig {
	return scenario.SweepConfig{Seeds: f.seeds, Window: f.window, BaseSeed: f.baseSeed}
}

// request is the /v1 request for this sweep of spec in the given shards.
func (f *sweepFlags) request(spec *scenario.Spec, shards int) dist.SweepRequest {
	return dist.SweepRequest{Spec: spec, Shards: shards, Seeds: f.seeds, Window: f.window,
		BaseSeed: f.baseSeed, SampleN: f.sample, SampleSeed: f.sampleSeed}
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout)
		case "explain":
			return runExplain(args[1:], stdout)
		case "claims":
			return runClaims(args[1:], stdout)
		case "serve":
			return runServe(ctx, args[1:], stdout, stderr)
		case "work":
			return runWork(ctx, args[1:], stdout, stderr)
		case "submit":
			return runSubmit(ctx, args[1:], stdout, stderr)
		case "watch":
			return runWatch(ctx, args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("goalsweep", flag.ContinueOnError)
	var sf sweepFlags
	sf.add(fs)
	var (
		parallel    = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		jsonOut     = fs.Bool("json", false, "emit per-scenario aggregates and the summary as JSON")
		csvOut      = fs.Bool("csv", false, "emit per-scenario aggregates as CSV")
		list        = fs.Bool("list", false, "list the selected scenarios without executing them")
		outPath     = fs.String("out", "", "write output to this file instead of stdout")
		shardSpec   = fs.String("shard", "", "run only shard i/n of the selection (1-based, e.g. 2/3); with -json, emits a mergeable shard envelope")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory; stored scenarios skip execution, byte-identically")
		fingerprint = fs.Bool("fingerprint", false, "print the sweep fingerprint (cache/merge identity) and exit without executing")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (pprof format)")
		memProfile  = fs.String("memprofile", "", "write a heap profile, taken after the sweep completes, to this file (pprof format)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first non-flag, so a mistyped
		// subcommand would otherwise run the default sweep.
		return fmt.Errorf("unexpected argument %q: the subcommands are merge, explain, claims, serve, work, submit and watch", fs.Arg(0))
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	var shard scenario.Shard
	sharded := *shardSpec != ""
	if sharded {
		var err error
		if shard, err = scenario.ParseShard(*shardSpec); err != nil {
			return err
		}
	}

	spec, err := sf.spec()
	if err != nil {
		return err
	}
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		return err
	}
	// A composed spec enumerates (and fingerprints) in canonical form;
	// adopt it so the report, envelope and fingerprint agree.
	spec = m.Spec()

	cfg := sf.config()
	cfg.Parallel = *parallel
	effSeeds, effWindow, effBase := cfg.Effective(spec)
	// The CLI always binds through the stock registry.
	fp := scenario.Fingerprint(spec, scenario.Builtin().Version(), effSeeds, effWindow, effBase, sf.sample, sf.sampleSeed)

	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	// A close error (write-back failure on -out) must surface: CI cmp's
	// these artifacts byte for byte.
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	if *fingerprint {
		_, err := fmt.Fprintln(out, fp)
		return err
	}

	var indices []int64 // nil = the whole matrix
	if sf.sample > 0 {
		indices = m.Sample(sf.sample, sf.sampleSeed)
	}
	if sharded {
		indices = shard.Indices(m, indices)
	}
	selected := m.Size()
	if indices != nil {
		selected = int64(len(indices))
	}

	if *list {
		return listScenarios(out, m, indices)
	}

	if *cacheDir != "" {
		cache, err := scenario.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache
	}

	var stats []*scenario.Stats
	cfg.OnStats = func(st *scenario.Stats) error {
		stats = append(stats, st)
		return nil
	}
	// Both profile files are created before the sweep so a bad path
	// fails fast instead of discarding a completed run's results.
	var memProfileFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		memProfileFile = f
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		// Stopped explicitly right after the sweep so the profile covers
		// exactly the trial execution, not report rendering; the deferred
		// stop is a no-op then and only matters on error paths.
		defer pprof.StopCPUProfile()
	}
	sum, err := m.Sweep(indices, cfg)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if memProfileFile != nil {
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(memProfileFile); err != nil {
			return err
		}
	}

	if *cacheDir != "" {
		// Cache accounting goes to stderr so every report stream stays
		// byte-identical between cold and warm runs.
		fmt.Fprintf(stderr, "goalsweep: cache: %d hits, %d misses, %d trials executed\n",
			sum.CacheHits, sum.CacheMisses, sum.ExecutedTrials)
		if sum.CacheWriteError != nil {
			fmt.Fprintf(stderr, "goalsweep: warning: result cache disabled mid-sweep (results unaffected): %v\n",
				sum.CacheWriteError)
		}
	}

	if *jsonOut && sharded {
		sr := &scenario.ShardResult{
			Version:     scenario.ShardFormatVersion,
			Fingerprint: fp,
			Spec:        spec,
			Shard:       shard,
			Scenarios:   stats,
			Summary:     sum,
		}
		err = sr.Write(out)
	} else {
		err = renderReport(out, *jsonOut, *csvOut, m, spec, sum, stats, selected)
	}
	if err != nil {
		return err
	}
	return trialFailures(sum, stats)
}

// openOut resolves -out: stdout, or a created file the caller closes.
func openOut(outPath string, stdout io.Writer) (io.Writer, func() error, error) {
	if outPath == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, nil, fmt.Errorf("create %s: %w", outPath, err)
	}
	return f, f.Close, nil
}

// renderReport writes the aggregates in the selected format. m may be
// nil (merge mode); the table renderer then rebuilds the matrix from the
// spec for its size header.
func renderReport(out io.Writer, jsonOut, csvOut bool, m *scenario.Matrix,
	spec *scenario.Spec, sum *scenario.Summary, stats []*scenario.Stats, selected int64) error {
	switch {
	case jsonOut:
		return scenario.WriteReport(out, spec.Name, stats, sum)
	case csvOut:
		return writeCSV(out, spec, stats)
	default:
		if m == nil {
			var err error
			if m, err = scenario.NewMatrix(spec); err != nil {
				return err
			}
		}
		return writeTable(out, m, spec, sum, stats, selected)
	}
}

// trialFailures is the exit contract shared by sweeps and merges:
// failing trials are data in the report, but a run that could not
// execute everything must not exit 0.
func trialFailures(sum *scenario.Summary, stats []*scenario.Stats) error {
	if sum.Errors == 0 {
		return nil
	}
	for _, st := range stats {
		if st.Errors > 0 {
			return fmt.Errorf("%d of %d trials failed (first: scenario %s: %s)",
				sum.Errors, sum.Trials, st.ID, st.FirstError)
		}
	}
	return nil
}

// runMerge recombines shard envelopes (goalsweep -shard i/n -json) into
// the unsharded sweep's report: goalsweep merge [-json|-csv] [-out F]
// shard1.json shard2.json ...
func runMerge(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("goalsweep merge", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit the merged aggregates and summary as JSON")
		csvOut  = fs.Bool("csv", false, "emit the merged aggregates as CSV")
		outPath = fs.String("out", "", "write output to this file instead of stdout")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge needs shard result files (goalsweep -shard i/n -json output)")
	}
	var shards []*scenario.ShardResult
	var rd scenario.ShardReader
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sr, err := rd.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		// Cross-envelope mismatches are detected here, where the offending
		// input file can be named; MergeShards sees only envelopes.
		first := files[0]
		if i > 0 {
			if sr.Fingerprint != shards[0].Fingerprint {
				return fmt.Errorf("%s: shard %s fingerprint %s does not match %s from %s — shards come from different sweeps",
					path, sr.Shard, sr.Fingerprint, shards[0].Fingerprint, first)
			}
			if sr.Shard.Count != shards[0].Shard.Count {
				return fmt.Errorf("%s: shard %s mixed into the %d-way partition started by %s",
					path, sr.Shard, shards[0].Shard.Count, first)
			}
		}
		for j, prev := range shards {
			if prev.Shard.Index == sr.Shard.Index {
				return fmt.Errorf("%s: duplicate shard %s, already supplied by %s", path, sr.Shard, files[j])
			}
		}
		shards = append(shards, sr)
	}
	stats, sum, err := scenario.MergeShards(shards)
	if err != nil {
		return err
	}
	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if err := renderReport(out, *jsonOut, *csvOut, nil, shards[0].Spec, sum, stats, int64(len(stats))); err != nil {
		return err
	}
	return trialFailures(sum, stats)
}

// resolveSpec loads the spec and applies -filter restrictions.
func resolveSpec(specPath, builtin string, filters filterFlags) (*scenario.Spec, error) {
	spec, err := loadSpec(specPath, builtin)
	if err != nil {
		return nil, err
	}
	for _, f := range filters {
		name, vals, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad -filter %q: want axis=v1,v2", f)
		}
		if err := spec.Restrict(name, strings.Split(vals, ",")...); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// loadSpec reads -spec, or resolves -builtin (defaulting to "default").
func loadSpec(specPath, builtin string) (*scenario.Spec, error) {
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return scenario.ReadSpec(f)
	}
	if builtin == "" {
		builtin = "default"
	}
	return scenario.BuiltinSpec(builtin)
}

func listScenarios(out io.Writer, m *scenario.Matrix, indices []int64) error {
	emit := func(sc *scenario.Scenario) error {
		_, err := fmt.Fprintln(out, sc.String())
		return err
	}
	if indices == nil {
		return m.Each(emit)
	}
	for _, i := range indices {
		if err := emit(m.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// g formats a float in shortest round-trip form for CSV cells.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func writeCSV(out io.Writer, spec *scenario.Spec, stats []*scenario.Stats) error {
	w := csv.NewWriter(out)
	// Axis columns come from the union across blocks: scenarios of a
	// composed spec carry different axis sets, so cells are looked up by
	// name and an axis a scenario's block omits renders empty.
	axes := spec.AxesUnion()
	header := []string{"id"}
	for _, ax := range axes {
		header = append(header, ax.Name)
	}
	header = append(header,
		"trials", "errors", "successes", "successRate",
		"roundsMean", "roundsP50", "roundsP99", "roundsMax", "roundsStddev",
		"meanExecutedRounds", "msgsPerRound", "meanSwitches", "firstError")
	if err := w.Write(header); err != nil {
		return err
	}
	for _, st := range stats {
		row := []string{st.ID}
		for _, ax := range axes {
			v, _ := st.Axis(ax.Name)
			row = append(row, v)
		}
		row = append(row,
			strconv.Itoa(st.Trials), strconv.Itoa(st.Errors),
			strconv.Itoa(st.Successes), g(st.SuccessRate),
			g(st.Rounds.Mean), g(st.Rounds.P50), g(st.Rounds.P99),
			g(st.Rounds.Max), g(st.Rounds.Stddev),
			g(st.MeanExecutedRounds), g(st.MsgsPerRound), g(st.MeanSwitches),
			st.FirstError)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// varyingAxes names the axes a table shows: those with several values, or
// that some block omits (its scenarios hold the axis at the default).
func varyingAxes(spec *scenario.Spec) []string {
	var varying []string
	for _, ax := range spec.AxesUnion() {
		if len(ax.Values) > 1 || !ax.Everywhere {
			varying = append(varying, ax.Name)
		}
	}
	return varying
}

// writeTable renders the human-readable report: one row per scenario with
// a column for every axis that actually varies, then the summary.
func writeTable(out io.Writer, m *scenario.Matrix, spec *scenario.Spec,
	sum *scenario.Summary, stats []*scenario.Stats, selected int64) error {
	varying := varyingAxes(spec)
	tbl := &harness.Table{
		ID:    "SWEEP",
		Title: fmt.Sprintf("spec %q: %d of %d scenarios", spec.Name, selected, m.Size()),
		Columns: append(append([]string{"scenario"}, varying...),
			"trials", "ok", "mean", "p50", "p99", "msg/r", "switches"),
	}
	for _, st := range stats {
		row := []string{st.ID}
		for _, name := range varying {
			v, _ := st.Axis(name)
			row = append(row, v)
		}
		row = append(row,
			harness.I(st.Trials),
			harness.Percent(st.Successes, st.Trials),
			harness.F(st.Rounds.Mean),
			harness.F(st.Rounds.P50),
			harness.F(st.Rounds.P99),
			fmt.Sprintf("%.2f", st.MsgsPerRound),
			harness.F(st.MeanSwitches))
		tbl.AddRow(row...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "\nsummary: %d scenarios, %d trials, %d successes (%s), %d errors, %d rounds\n",
		sum.Scenarios, sum.Trials, sum.Successes,
		harness.Percent(sum.Successes, sum.Trials), sum.Errors, sum.TotalRounds)
	return err
}
