package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// resultFile is what -out writes and compare reads: enough metadata to
// pair runs, and every raw sample behind every median.
type resultFile struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

type meta struct {
	Host    host      `json:"host"`
	Commit  string    `json:"commit"`
	Dirty   bool      `json:"dirty"`
	Seed    uint64    `json:"seed"`
	Reps    int       `json:"reps"`
	Seconds int       `json:"seconds,omitempty"`
	Procs   int       `json:"procs"`
	Sizes   sizes     `json:"sizes"`
	Started time.Time `json:"started"`
}

type workloadResult struct {
	Name      string                   `json:"name"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Checks    []check                  `json:"checks"`
	Metrics   map[string]*metricResult `json:"metrics"`
	Stolen    []float64                `json:"stolenShare"` // per rep: the share of CPU time taken out of its timings
	Layers    map[string]float64       `json:"layers,omitempty"`
	SelfTimes []nameTime               `json:"selfTimes,omitempty"`
}

type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
	Samples []float64 `json:"samples"`
}

// workloadRun accumulates one workload's reps.
type workloadRun struct {
	w       *workload
	warmup  *rep
	report  string // the warm-up's report, saved in the work directory
	reps    []*rep
	elapsed time.Duration
	counts  *reportCounts
	res     *workloadResult
}

// wallMedian is the end-to-end wall time the traced run subtracts its
// in-process sweep from.
func (wr *workloadRun) wallMedian() float64 {
	return wr.res.Metrics["wall_s"].Median
}

func (wr *workloadRun) needsMore(reps, seconds int) bool {
	if seconds > 0 {
		return len(wr.reps) < minReps || wr.elapsed < time.Duration(seconds)*time.Second
	}
	return len(wr.reps) < reps
}

func (b *bench) runAll(ctx context.Context, selected []*workload, reps, seconds int, traced bool) (*resultFile, error) {
	commit, dirty := gitState(b.root)
	res := &resultFile{Meta: meta{
		Host: hostFingerprint(), Commit: commit, Dirty: dirty, Seed: b.seed, Reps: reps,
		Seconds: seconds, Procs: b.procs, Sizes: b.sz, Started: time.Now().UTC(),
	}}
	runs := make([]*workloadRun, len(selected))
	for i, w := range selected {
		runs[i] = &workloadRun{w: w}
		r, err := b.rep(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		runs[i].warmup = r
		runs[i].report = filepath.Join(b.work, w.name+".json")
		if err := os.WriteFile(runs[i].report, r.out, 0o644); err != nil {
			return nil, err
		}
		syscall.Sync()
		fmt.Fprintf(b.log, "goalbench: %-13s warm-up  wall %.3fs\n", w.name, r.wall)
	}
	// Reps interleave round-robin, so a slow spell on the host spreads
	// over every workload instead of landing on one.
	for more := true; more; {
		more = false
		for _, wr := range runs {
			if !wr.needsMore(reps, seconds) {
				continue
			}
			more = true
			start := time.Now()
			r, err := b.rep(ctx, wr.w)
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", wr.w.name, len(wr.reps)+1, err)
			}
			wr.elapsed += time.Since(start)
			r.out = nil // the digest stands for it; a run holds dozens of reps
			wr.reps = append(wr.reps, r)
			fmt.Fprintf(b.log, "goalbench: %-13s rep %-3d  wall %.3fs  setup %.3fs  rss %.0fMB  stolen %.1f%%\n",
				wr.w.name, len(wr.reps), r.wall, median(r.setup), r.rssMB, 100*r.stolen)
		}
	}
	for _, wr := range runs {
		if err := b.finish(ctx, wr); err != nil {
			return nil, fmt.Errorf("%s: %w", wr.w.name, err)
		}
		res.Workloads = append(res.Workloads, wr.res)
	}
	if traced {
		for _, wr := range runs {
			if err := b.traceRun(ctx, wr); err != nil {
				return nil, fmt.Errorf("%s traced run: %w", wr.w.name, err)
			}
		}
	}
	return res, nil
}

// rep runs one rep and records the share of the machine's CPU time stolen
// while it ran, then flushes what it wrote: the fleet's state files a rep
// leaves dirty must not be written back during the next one.
func (b *bench) rep(ctx context.Context, w *workload) (*rep, error) {
	start, stolen := time.Now(), stolenSeconds()
	r, err := w.rep(b, ctx)
	if err == nil {
		r.stolen = (stolenSeconds() - stolen) / (time.Since(start).Seconds() * float64(runtime.NumCPU()))
	}
	syscall.Sync()
	return r, err
}

// finish checks the reports and derives the metrics.
func (b *bench) finish(ctx context.Context, wr *workloadRun) error {
	ref := wr.warmup.digest
	refName := "warm-up report"
	if wr.w.reference != nil {
		var err error
		if ref, err = wr.w.reference(b, ctx); err != nil {
			return err
		}
		refName = "local run of the same selection"
	}
	res := &workloadResult{Name: wr.w.name, Metrics: make(map[string]*metricResult)}
	wr.res = res
	goldenOK := true
	if golden, ok, err := b.golden(wr.w.name); err != nil {
		return err
	} else if ok {
		goldenOK = golden == ref
		res.Checks = append(res.Checks, check{Name: "reference report matches bench/golden at seed 1", OK: goldenOK,
			Detail: fmt.Sprintf("want %s, got %s", golden, ref)})
	}
	if wr.w.reference != nil {
		res.Checks = append(res.Checks, check{Name: "warm-up report equals the " + refName, OK: wr.warmup.digest == ref})
	}

	counts, err := wr.w.counts(wr.report)
	if err != nil {
		return err
	}
	wr.counts = counts
	if counts.ops < 1 {
		return fmt.Errorf("report holds no operations")
	}
	var mismatched []string
	samples := make(map[string][]float64)
	for i, r := range wr.reps {
		if r.digest != ref {
			mismatched = append(mismatched, fmt.Sprint(i+1))
		}
		failed := counts.errors
		if !goldenOK || r.digest != ref {
			failed = counts.ops
		}
		res.Attempted += counts.ops
		res.Failed += failed
		// Timings are net of steal: a rep that lost a share s of the
		// machine's CPU time to other guests ran 1/(1-s) times as long as
		// the program alone would have.
		net := 1 - r.stolen
		wall := r.wall * net
		samples["wall_s"] = append(samples["wall_s"], wall)
		samples["scenarios_per_s"] = append(samples["scenarios_per_s"], float64(counts.scenarios)/wall)
		if wr.w.rounds {
			samples["rounds_per_s"] = append(samples["rounds_per_s"], float64(counts.rounds)/wall)
		}
		for _, s := range r.setup {
			samples["setup_s"] = append(samples["setup_s"], s*net)
		}
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], r.rssMB)
		res.Stolen = append(res.Stolen, r.stolen)
		samples["failed_ratio"] = append(samples["failed_ratio"], float64(failed)/float64(counts.ops))
	}
	res.Checks = append(res.Checks, check{Name: "every rep's report equals the " + refName, OK: len(mismatched) == 0,
		Detail: strings.Join(mismatched, ",")})
	res.Checks = append(res.Checks, check{Name: "reports record no trial errors", OK: counts.errors == 0,
		Detail: fmt.Sprintf("%d errors", counts.errors)})
	for _, d := range e2eMetrics {
		if xs, ok := samples[d.Name]; ok {
			res.Metrics[d.Name] = &metricResult{Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summarize(xs), Samples: xs}
		}
	}
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return nil
}

// golden returns the committed seed-1 digest of a workload's report. Only
// full-size runs at seed 1 have one, and only on amd64, where the digests
// were recorded: Go may fuse multiply-adds on other architectures, which
// changes the reports' floating-point digits.
func (b *bench) golden(name string) (string, bool, error) {
	if b.seed != 1 || b.smoke || runtime.GOARCH != "amd64" {
		return "", false, nil
	}
	data, err := os.ReadFile(filepath.Join(b.root, "bench", "golden", name+".sha256"))
	if err != nil {
		return "", false, err
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return "", false, fmt.Errorf("bench/golden/%s.sha256 is empty", name)
	}
	return fields[0], true, nil
}

// traceRun runs the workload's traced in-process run, fills every layer
// metric it does not reach with 0 and writes the span file.
func (b *bench) traceRun(ctx context.Context, wr *workloadRun) error {
	tr := newTracer()
	start := time.Now()
	layers, err := wr.w.trace(ctx, b, tr, wr)
	if err != nil {
		return err
	}
	for _, d := range layerMetrics {
		if _, ok := layers[d.Name]; !ok {
			layers[d.Name] = 0
		}
	}
	wr.res.Layers = layers
	tr.mu.Lock()
	wr.res.SelfTimes = selfByName(tr.spans)
	tr.mu.Unlock()
	mismatches := layers["trace.replay_mismatches"]
	wr.res.Checks = append(wr.res.Checks, check{Name: "traced run reproduces the report's results", OK: mismatches == 0,
		Detail: fmt.Sprintf("%.0f mismatches", mismatches)})
	wr.res.Correct = wr.res.Correct && mismatches == 0
	path := filepath.Join(b.outdir, wr.w.name+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "goalbench: %-13s traced run %.1fs, spans in %s\n", wr.w.name, time.Since(start).Seconds(), path)
	return nil
}

func printResults(out io.Writer, res *resultFile) {
	m := res.Meta
	fmt.Fprintf(out, "goalbench: seed %d, P=%d, %s, %s (%d CPUs), commit %s", m.Seed, m.Procs, m.Host.Go, m.Host.CPU, m.Host.NProc, m.Commit)
	if m.Dirty {
		fmt.Fprint(out, " (dirty)")
	}
	fmt.Fprintln(out)
	for _, wr := range res.Workloads {
		fmt.Fprintf(out, "\n%s: attempted %d, failed %d, correct %v\n", wr.Name, wr.Attempted, wr.Failed, wr.Correct)
		fmt.Fprintf(out, "  timings are net of steal; the hypervisor took a median %.1f%% of CPU time per rep\n", 100*median(wr.Stolen))
		fmt.Fprintf(out, "  %-18s %-12s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, d := range e2eMetrics {
			if mr, ok := wr.Metrics[d.Name]; ok {
				fmt.Fprintf(out, "  %-18s %-12s %14.6g %14.6g %14.6g %4d\n", d.Name, d.Unit, mr.Median, mr.Q1, mr.Q3, mr.N)
			}
		}
		for _, c := range wr.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(out, "  [%s] %s", mark, c.Name)
			if !c.OK && c.Detail != "" {
				fmt.Fprintf(out, " (%s)", c.Detail)
			}
			fmt.Fprintln(out)
		}
		if wr.Layers == nil {
			continue
		}
		fmt.Fprintf(out, "  per-layer metrics (traced run):\n")
		for _, d := range layerMetrics {
			if v := wr.Layers[d.Name]; v != 0 {
				fmt.Fprintf(out, "    %-34s %-12s %14.6g\n", d.Name, d.Unit, v)
			}
		}
		var zero []string
		for _, d := range layerMetrics {
			if wr.Layers[d.Name] == 0 {
				zero = append(zero, d.Name)
			}
		}
		sort.Strings(zero)
		fmt.Fprintf(out, "    read 0 (layer not reached, or a call below clock resolution): %s\n", strings.Join(zero, " "))
		fmt.Fprintf(out, "  span self time by name:\n")
		for _, nt := range wr.SelfTimes {
			fmt.Fprintf(out, "    %s\n", nt)
		}
	}
}

// printResultLine prints the one-line result: the listed end-to-end
// medians, or with tracing the per-layer metrics.
func printResultLine(out io.Writer, wr *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, d := range layerMetrics {
			metrics[d.Name] = value{wr.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range e2eMetrics {
			if d.Listed {
				metrics[d.Name] = value{wr.Metrics[d.Name].Median, d.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
