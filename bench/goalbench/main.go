// Command goalbench is the repository's benchmark. It builds the CLIs
// from the checkout under test, runs four workloads through them with one
// untimed warm-up each and the timed reps interleaved round-robin, checks
// every report byte for byte, and prints each end-to-end metric with its
// unit, median, quartiles and sample count. -trace 1 adds one traced
// in-process run per workload that times the calls into each layer and
// prints the per-layer metrics; compare judges two result files against
// the metrics' bounds.
//
// Run it from the repository root through bench/run.sh, which keeps the
// Go build cache inside the checkout:
//
//	bash bench/run.sh -seed 1                       # all workloads, 5 reps each
//	bash bench/run.sh -workload fleet -reps 3       # one workload
//	bash bench/run.sh -seed 1 -trace 1              # plus the traced runs
//	bash bench/run.sh -seed 1 -out run1.json        # result file with raw samples
//	bash bench/run.sh compare run1.json run2.json   # better/same/worse/unresolved
//	bash bench/run.sh -smoke                        # every path on tiny inputs
//
// With a single -workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, the metrics being
// the end-to-end ones named in BENCHMARK.json, or the per-layer ones with
// -trace 1. Flags also take the --name value form.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// bench is one benchmark invocation's configuration.
type bench struct {
	root   string // repository root: the module whose CLIs are measured
	bin    string // built CLIs
	work   string // specs, reports and temporary stores
	outdir string // span files
	seed   uint64
	procs  int // P: the sweeps' -parallel and the fleet's worker count
	sz     sizes
	smoke  bool
	log    io.Writer
}

// minReps is the fewest timed reps a time-budgeted run makes: quartiles
// of fewer samples say nothing.
const minReps = 3

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("goalbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 1, "workload seed: sweeps get -baseseed (and -sampleseed), goalsim gets -seed")
		reps    = fs.Int("reps", 5, "timed reps per workload when -seconds is 0")
		seconds = fs.Int("seconds", 0, "if > 0, repeat each workload's reps until they took this many seconds (at least 3 reps)")
		name    = fs.String("workload", "all", "workload to run: stock-rounds, family-sample, fleet, paper or all")
		trace   = fs.Int("trace", 0, "1 adds one traced in-process run per workload and reports the per-layer metrics")
		outPath = fs.String("out", "", "write the result file (host, commit, seed and every raw sample) here")
		outDir  = fs.String("outdir", "", "directory for span files (default .bench_build/goalbench/spans under the root)")
		smoke   = fs.Bool("smoke", false, "run every workload and the traced run on tiny selections, 2 reps each")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *reps < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "goalbench: bad arguments; want [-seed S] [-reps N] [-seconds S] [-workload W] [-trace 0|1] [-out F] [-outdir D] [-smoke]")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "goalbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *smoke {
		*reps, *seconds, *trace = 2, 0, 1
	}

	b, err := newBench(*seed, *smoke, *outDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "goalbench:", err)
		return 1
	}
	res, err := b.runAll(ctx, selected, *reps, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "goalbench:", err)
		return 1
	}
	printResults(stdout, res)
	if *outPath != "" {
		if err := writeJSONFile(*outPath, res); err != nil {
			fmt.Fprintln(stderr, "goalbench:", err)
			return 1
		}
	}
	correct := true
	for _, wr := range res.Workloads {
		correct = correct && wr.Correct
	}
	if len(res.Workloads) == 1 {
		if err := printResultLine(stdout, res.Workloads[0], *trace == 1); err != nil {
			fmt.Fprintln(stderr, "goalbench:", err)
			return 1
		}
	}
	if !correct {
		fmt.Fprintln(stderr, "goalbench: some checks failed")
		return 1
	}
	return 0
}

// newBench locates the repository, prepares the build directory and
// builds the CLIs from the checkout.
func newBench(seed uint64, smoke bool, outdir string, log io.Writer) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build", "goalbench")
	b := &bench{
		root:  root,
		bin:   filepath.Join(build, "bin"),
		work:  filepath.Join(build, "work"),
		seed:  seed,
		procs: runtime.NumCPU(),
		sz:    fullSizes,
		smoke: smoke,
		log:   log,
	}
	if smoke {
		b.sz = smokeSizes
		b.work = filepath.Join(build, "smoke")
	}
	b.outdir = outdir
	if b.outdir == "" {
		b.outdir = filepath.Join(build, "spans")
	}
	// Leftover stores and reports of an interrupted run must not leak into
	// this one.
	removeAll(b.work)
	for _, dir := range []string{b.bin, b.work, b.outdir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", b.bin+string(filepath.Separator), "./cmd/goalsim", "./cmd/goalsweep")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build CLIs: %w: %s", err, out)
	}
	fmt.Fprintf(log, "goalbench: built goalsim and goalsweep in %.1fs\n", time.Since(start).Seconds())
	return b, b.writeSpecs()
}

// findRoot walks up from the working directory to the module the
// benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRepoRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing directory holds the repro module (go.mod with \"module repro\"); run from the repository")
		}
		dir = parent
	}
}

func isRepoRoot(dir string) bool {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[0] == "module" {
			return fields[1] == "repro"
		}
	}
	return false
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
