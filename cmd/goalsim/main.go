// Command goalsim regenerates the tables and figures of the reproduction
// (see README, "Running the experiments").
//
// Usage:
//
//	goalsim -experiment all            # run everything (full sizes)
//	goalsim -experiment T2 -quick      # one experiment at reduced scale
//	goalsim -experiment A5             # ablations A1..A5
//	goalsim -parallel 4                # bound the trial worker pool
//	goalsim -experiment T1 -json       # machine-readable report
//	goalsim -list                      # show available experiments
//
// Output goes to stdout (or -out FILE); runs are deterministic per -seed,
// and -parallel never changes the report (trials execute through the batch
// engine, which delivers results in submission order). -json emits the
// tables and series as a JSON array — one object per experiment — for
// tracking benchmark trajectories across commits; the JSON is fully
// deterministic (no timings).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "goalsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("goalsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id (T1..T6, F1, F2, A1..A5) or \"all\"")
		quick      = fs.Bool("quick", false, "reduced sizes for a fast smoke run")
		seed       = fs.Uint64("seed", 1, "root random seed")
		parallel   = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		jsonOut    = fs.Bool("json", false, "emit the report as JSON instead of ASCII tables")
		outPath    = fs.String("out", "", "write the report to this file instead of stdout")
		list       = fs.Bool("list", false, "list available experiments and exit")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *outPath, err)
		}
		defer f.Close()
		out = f
	}

	var runners []experiments.Runner
	if *experiment == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.ByID(*experiment)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Parallel: *parallel}

	if *jsonOut {
		type jsonExperiment struct {
			ID     string          `json:"id"`
			Title  string          `json:"title"`
			Report *harness.Report `json:"report"`
		}
		reports := make([]jsonExperiment, 0, len(runners))
		for _, r := range runners {
			rep, err := r.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", r.ID, err)
			}
			reports = append(reports, jsonExperiment{ID: r.ID, Title: r.Title, Report: rep})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}

	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintf(out, "### %s — %s (elapsed %v)\n\n", r.ID, r.Title, time.Since(start).Round(time.Millisecond))
		if err := rep.Render(out); err != nil {
			return fmt.Errorf("%s: render: %w", r.ID, err)
		}
	}
	return nil
}
